"""Disk-backed, content-addressed store for exploration evaluations.

Every simulator evaluation an exploration performs is persisted as one
record under ``<root>/explore/`` (default root: ``.repro_cache/`` in
the working directory, overridable via the ``REPRO_CACHE_DIR``
environment variable), addressed by the SHA-256 of the evaluation's
*key* — a canonical JSON document naming everything that determines the
result:

* a schema version (bump :data:`SCHEMA_VERSION` to invalidate the world);
* the kernel identity (name/width, or analysis fingerprint) and the
  gate count of its decomposed circuit;
* the full technology-parameter record, error rates included;
* the simulation engine;
* the resolved design point (defaults filled in, so ``{"arch": "cqla"}``
  and an explicit default cache fraction share one entry).

A :class:`StoreKey` carries the key document and its digest, computed
once. Everything but the point is fixed per evaluator, so
:class:`~repro.explore.evaluator.Evaluator` encodes that base once,
split around the ``"point"`` slot, and hashes prefix + the point's
canonical JSON + suffix: the same bytes :func:`canonical_json` gives
the whole document, so the digests are unchanged.

Re-running an exploration with a warm store therefore performs zero new
simulator evaluations, and *refined* searches only pay for points they
have never seen. Anything that changes the simulation — new tech
params, a different kernel width, an engine fix that bumps the schema —
lands on different digests, so stale entries are never returned; they
are merely garbage, reportable and reclaimable with
:meth:`ResultStore.fsck` (``repro cache fsck``) or wholesale with
:meth:`ResultStore.clear`.

Layout — one append-only log (Bitcask, a hash index over an append-only
file: Sheehy & Smith 2010):

* every writer appends to ``explore/records.log``, opened once with
  ``O_APPEND`` at its first put (a warm all-hit run creates nothing). A
  record is one *frame* written with one ``write``: a header line
  ``<digest> <length> <crc32>`` and the record's compact canonical JSON
  on one line. Appends of concurrent writers do not interleave;
* :meth:`get` finds a frame through an in-memory index (one int per
  digest: offset and length), reads it with one ``pread`` and checks
  digest, length and CRC. A miss first indexes what the log gained
  since the last look (one ``fstat``), so concurrent explorers, serve
  replicas and lease waiters share results, at a cost that does not
  grow with the number of writers. A store's first miss indexes the
  whole log.

Durability and fault behaviour:

* the store is a cache of deterministic recomputations, so frames are
  not fsync'd: a frame that a crash or power loss leaves torn, short or
  failing its CRC reads as a miss and is recomputed, and readers
  resynchronise at the next header. Only the exploration journal
  (``journal.jsonl``, see :mod:`repro.explore.engine`) is fsync'd,
  since resume depends on it;
* a put checks that the log is still linked (one ``fstat``), so a log
  removed under a live writer (``explore/`` deleted, :meth:`clear`) is
  made again where readers look, and a reader indexes a removed or
  replaced log afresh;
* a failed write (``ENOSPC``, read-only cache dir) degrades to a
  :class:`~repro.explore.errors.StoreDegradedWarning` instead of
  crashing the exploration — the evaluation lives on in memory;
* ``fsck --remove`` rewrites the log without its damaged, stale-schema,
  foreign and repeated frames (into ``records.log.compact``, renamed
  over it; frames appended meanwhile are carried over). The per-record
  ``<digest>.json`` files of the older layout are ``legacy``: reported,
  deleted, never read.

Concurrency — the lease protocol:

Multiple evaluators sharing one store coordinate through *leases*
(``explore/<digest>.lease``). Each store instance keeps one *owner
token* under ``<root>/owners/`` holding its ``{"owner", "pid",
"claimed"}`` JSON, and a lease is a hard link to that token:
:meth:`claim` takes it with ``os.link`` (``EEXIST``: someone holds it),
so a cold miss creates no inode. A lease is ours when its inode is our
token's (one ``stat``), and its mtime is the token's: one
:meth:`heartbeat` at a batch boundary keeps every lease of the store
live, and :meth:`claim` refreshes a token older than ``lease_ttl / 4``
so no lease is born stale. A contender that fails to claim waits for the
record to appear; if the owner dies, its leases go stale (no heartbeat
for ``lease_ttl`` seconds) and a contender reclaims one by linking its
own token at ``.reclaim-<nonce>.lease``, ``os.replace``-ing that over
the lease and reading back the inode, so of several racing reclaimers
exactly one (the last writer) proceeds. ``fsck --remove`` deletes stale
leases and then stale tokens (a dead owner's token and leases share one
mtime, so they go in one pass); a store recreates its token on the next
claim. Where hard links are unsupported, :meth:`claim` fails open with a
:class:`~repro.explore.errors.StoreDegradedWarning`. The protocol is
cooperative — it deduplicates work; correctness never depends on it
because a record is a deterministic recomputation: a repeated put
appends an equal frame. Each store syscall sits behind a
:data:`~repro.testing.faults.STORE_STAGES` fault stage.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import socket
import time
import uuid
import warnings
import weakref
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.explore.errors import LeaseHeld, StoreDegradedWarning
from repro.obs import metrics as _metrics
from repro.obs.trace import enabled as _tracing
from repro.testing import faults

SCHEMA_VERSION = 1

#: Seconds without a heartbeat after which a lease is considered
#: abandoned and may be reclaimed by another evaluator.
DEFAULT_LEASE_TTL = 300.0

_DEFAULT_ROOT = ".repro_cache"

#: One frame: ``<digest> <length> <crc32>\n<payload>\n``.
_FRAME = re.compile(rb"([0-9a-f]{64}) (\d+) (\d+)\n([^\n]*)\n")

#: Bytes of the log a miss reads at once, so indexing a large log does
#: not hold all of it in memory.
_CHUNK = 1 << 22

#: Outcome counters, each resolved once: every store read and write
#: bumps one.
_GETS = _metrics.CounterFamily(
    "repro_store_get_total", "outcome", help="result-store reads by outcome"
)
_PUTS = _metrics.CounterFamily(
    "repro_store_put_total", "outcome", help="result-store writes by outcome"
)
_CLAIMS = _metrics.CounterFamily(
    "repro_lease_claims_total", "outcome",
    help="lease claim attempts by outcome",
)


def canonical_json(document: Dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def text_digest(text: str) -> str:
    """Content address of a key's canonical JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def key_digest(key: Dict) -> str:
    """Content address of a key document."""
    return text_digest(canonical_json(key))


class StoreKey(NamedTuple):
    """A key document with its content address, computed once.

    Every :class:`ResultStore` operation accepts one wherever it accepts
    a plain key dict; a caller that touches the same key several times
    (get, claim, heartbeat, put, release) builds it once and skips
    re-hashing the document on each call.
    """

    document: Dict
    digest: str

    @classmethod
    def of(cls, document: Dict) -> "StoreKey":
        return cls(document, key_digest(document))


Key = Union[Dict, StoreKey]


def _keyed(key: Key) -> StoreKey:
    return key if isinstance(key, StoreKey) else StoreKey.of(key)


def _unlink_all(paths: Iterable[Path]) -> int:
    """Unlink each of ``paths`` that still exists; returns how many. One
    that cannot be removed (a read-only cache directory) is left, with a
    :class:`StoreDegradedWarning`."""
    removed = 0
    for path in paths:
        try:
            faults.check("unlink")
            path.unlink()
            removed += 1
        except FileNotFoundError:
            pass
        except OSError as exc:
            warnings.warn(f"could not remove {path} ({exc})",
                          StoreDegradedWarning, stacklevel=3)
    return removed


def _stale(paths: Iterable[Path], ttl: float) -> List[Path]:
    """Those of ``paths`` that have gone ``ttl`` seconds untouched."""
    now, aged = time.time(), []
    for path in sorted(paths):
        try:
            if now - path.stat().st_mtime > ttl:
                aged.append(path)
        except OSError:
            pass  # removed between glob and stat
    return aged


def _sound(match: "re.Match[bytes]") -> bool:
    """Whether a frame's length and CRC agree with its payload."""
    payload = match.group(4)
    return (int(match.group(2)) == len(payload)
            and int(match.group(3)) == zlib.crc32(payload))


def _frames(data: bytes) -> Iterator["re.Match[bytes]"]:
    """The sound frames of ``data``, skipping damaged bytes; after an
    unsound frame the search resumes past its header line, so a frame
    glued to a torn one is still found."""
    pos = 0
    while True:
        match = _FRAME.search(data, pos)
        if match is None:
            return
        sound = _sound(match)
        if sound:
            yield match
        pos = match.end() if sound else match.end(3) + 1


def default_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", _DEFAULT_ROOT))


def _fault_point(key: Dict) -> Optional[Dict]:
    """The design-point part of a key, for fault-rule matching."""
    point = key.get("point") if isinstance(key, dict) else None
    return point if isinstance(point, dict) else None


@dataclass
class FsckReport:
    """What :meth:`ResultStore.fsck` found (and optionally removed);
    frames are named ``records.log@<offset>``."""

    ok: int = 0
    corrupt: List[str] = field(default_factory=list)
    stale_schema: List[str] = field(default_factory=list)
    foreign: List[str] = field(default_factory=list)
    #: Bytes after the log's last sound frame: a writer died mid-frame
    #: (or is still writing one).
    torn: List[str] = field(default_factory=list)
    stale_leases: List[str] = field(default_factory=list)
    stale_tokens: List[str] = field(default_factory=list)
    #: ``<digest>.json`` files of the older one-file-per-record layout.
    legacy: List[str] = field(default_factory=list)
    #: Whether ``remove=True`` rewrote the log.
    compacted: bool = False
    removed: int = 0

    @property
    def bad(self) -> int:
        return (len(self.corrupt) + len(self.stale_schema) + len(self.foreign)
                + len(self.torn))


class ResultStore:
    """Evaluations as frames in one append-only log, by key SHA-256.

    Processes and store instances share the log freely; one instance
    keeps its index and descriptor unlocked, so threads sharing it take
    turns (the server holds its work lock).

    Args:
        root: Cache root directory; evaluations live in ``root/explore``.
            Defaults to ``.repro_cache`` (or ``$REPRO_CACHE_DIR``).
        owner: Lease-owner identity; defaults to a unique
            ``host:pid:nonce`` token per store instance.
        lease_ttl: Seconds without a heartbeat before a lease counts as
            stale and may be reclaimed.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        *,
        owner: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.root = Path(root) if root is not None else default_root()
        self.directory = self.root / "explore"
        self.log = self.directory / "records.log"
        self.owner = owner or (
            f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        )
        if float(lease_ttl) <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.lease_ttl = float(lease_ttl)
        # Outside explore/, so its globs and listings never see it.
        self._token = self.root / "owners" / f"{uuid.uuid4().hex}.token"
        #: ``(st_ino, st_dev)`` of the token: a lease with it is ours.
        self._token_id: Optional[Tuple[int, int]] = None
        self._token_touched = 0.0
        #: Our descriptor on the log once open, and its closer (it also
        #: runs when the store is collected).
        self._fd: Optional[int] = None
        self._close: Optional[weakref.finalize] = None
        #: ``digest[:16] -> offset << 32 | frame length``; the frame's
        #: header holds the whole digest, checked on each read.
        self._index: Dict[str, int] = {}
        self._indexed = 0  # bytes of the log looked at

    # ------------------------------------------------------------------

    def _lease_path(self, key: Key) -> Path:
        return self.directory / f"{_keyed(key).digest}.lease"

    def journal_path(self) -> Path:
        """Where :func:`repro.explore.engine.explore` journals rounds."""
        return self.root / "journal.jsonl"

    @staticmethod
    def _valid(record: object) -> bool:
        return isinstance(record, dict) and record.get("schema") == SCHEMA_VERSION

    @staticmethod
    def _observe(op: str, seconds: float) -> None:
        """Record one store-operation latency (tracing-gated callers)."""
        _metrics.REGISTRY.histogram(
            "repro_store_op_seconds",
            _metrics.LATENCY_SECONDS_EDGES,
            help="result-store operation latency (seconds)",
            op=op,
        ).observe(seconds)

    def get(self, key: Key) -> Optional[Dict]:
        """The stored record for ``key``, or None (damaged frames miss).

        Always counts into ``repro_store_get_total{outcome=hit|miss}``;
        with tracing enabled the latency also lands in
        ``repro_store_op_seconds{op=get}``.
        """
        timed = _tracing()
        t0 = time.perf_counter() if timed else 0.0
        record = self._get(_keyed(key))
        if timed:
            self._observe("get", time.perf_counter() - t0)
        _GETS.inc("hit" if record is not None else "miss")
        return record

    def _get(self, key: StoreKey) -> Optional[Dict]:
        try:
            faults.check("store_get", _fault_point(key.document))
            entry = self._index.get(key.digest[:16])
            if entry is None and self._scan():
                entry = self._index.get(key.digest[:16])
            return None if entry is None else self._read(entry, key.digest)
        except (OSError, ValueError):  # ValueError: not JSON, or not UTF-8
            return None

    def _read(self, entry: int, digest: str) -> Optional[Dict]:
        """The record at index ``entry``, if sound and filed under
        ``digest`` (or a prefix of it)."""
        frame = os.pread(self._fd, entry & 0xFFFFFFFF, entry >> 32)
        match = _FRAME.fullmatch(frame)
        if (match is None or not _sound(match)
                or not match.group(1).startswith(digest.encode("ascii"))):
            return None
        record = json.loads(match.group(4))
        if not self._valid(record):
            return None
        return record

    def _open(self, create: bool) -> int:
        """Open the log (making it if ``create``) and index it afresh: the
        log the old descriptor reads, if any, was removed or replaced."""
        faults.check("log_open")
        flags = os.O_RDWR | os.O_APPEND
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
            flags |= os.O_CREAT
        try:
            fd = os.open(self.log, flags, 0o600)
        except OSError as exc:  # a read-only log (EACCES, EROFS) still reads
            if create or exc.errno not in (errno.EACCES, errno.EROFS):
                raise
            fd = os.open(self.log, os.O_RDONLY)  # and puts degrade
        if self._close is not None:
            self._close()
        self._fd, self._close = fd, weakref.finalize(self, os.close, fd)
        self._index.clear()
        self._indexed = 0
        return fd

    def _scan(self) -> bool:
        """Index the frames the log gained since the last look; True if
        any. An indexed digest keeps its entry."""
        stat = None if self._fd is None else os.fstat(self._fd)
        if stat is None or not stat.st_nlink:
            stat = os.fstat(self._open(create=False))
        grew = False
        while stat.st_size > self._indexed:
            start = self._indexed
            data = os.pread(self._fd, min(stat.st_size - start, _CHUNK), start)
            end = 0
            for match in _frames(data):
                begin, end = match.span()
                entry = (start + begin) << 32 | (end - begin)
                self._index.setdefault(match.group(1)[:16].decode("ascii"), entry)
            if not end:
                break  # damage, or a frame still being written
            self._indexed, grew = start + end, True
        return grew

    def put(self, key: Key, record: Dict) -> bool:
        """Append ``record`` under ``key`` to the log, not fsync'd: after
        power loss the record may read as a miss, and the point is then
        recomputed.

        Returns True on success. On I/O failure (``ENOSPC``, read-only
        cache directory) the store degrades: a
        :class:`StoreDegradedWarning` is emitted and False returned, so
        a long exploration keeps its in-memory results instead of
        crashing on a full disk.

        Always counts into ``repro_store_put_total{outcome=ok|degraded}``;
        with tracing enabled the latency also lands in
        ``repro_store_op_seconds{op=put}``.
        """
        timed = _tracing()
        t0 = time.perf_counter() if timed else 0.0
        ok = self._put(_keyed(key), record)
        if timed:
            self._observe("put", time.perf_counter() - t0)
        _PUTS.inc("ok" if ok else "degraded")
        return ok

    def _put(self, key: StoreKey, record: Dict) -> bool:
        document = dict(record)
        document["schema"] = SCHEMA_VERSION
        document["key"] = key.document
        payload = faults.mangle(
            "store_put", _fault_point(key.document), canonical_json(document)
        ).encode("utf-8")
        frame = b"%s %d %d\n%s\n" % (
            key.digest.encode("ascii"), len(payload), zlib.crc32(payload), payload
        )
        try:
            faults.check("store_put", _fault_point(key.document))
            fd = self._fd
            if fd is None or not os.fstat(fd).st_nlink:
                fd = self._open(create=True)
            faults.check("log_append", _fault_point(key.document))
            written = os.write(fd, frame)
            if written != len(frame):  # readers skip the partial frame
                raise OSError(errno.ENOSPC, "short write to the result store")
            end = os.lseek(fd, 0, os.SEEK_CUR)
            self._index[key.digest[:16]] = (end - written) << 32 | written
            if end - written == self._indexed:  # no other writer since
                self._indexed = end
            return True
        except OSError as exc:
            warnings.warn(
                f"result store write failed ({exc}); continuing without "
                f"persistence for this evaluation",
                StoreDegradedWarning,
                stacklevel=2,
            )
            return False

    # ------------------------------------------------------------------
    # Leases

    def _touch_token(self) -> None:
        """Refresh the owner token's mtime, recreating it if missing."""
        faults.check("token_refresh")
        try:
            os.utime(self._token)
        except FileNotFoundError:
            self._token.parent.mkdir(parents=True, exist_ok=True)
            with open(self._token, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(
                    {"owner": self.owner, "pid": os.getpid(),
                     "claimed": time.time()}
                ))
                stat = os.fstat(handle.fileno())
            self._token_id = (stat.st_ino, stat.st_dev)
        self._token_touched = time.time()

    def _link_token(self, path: Path) -> None:
        """Hard-link the owner token at ``path`` (FileExistsError if taken).

        The link shares the token's mtime, so a token older than a
        quarter TTL is refreshed first: no lease is born stale.
        """
        if time.time() - self._token_touched > self.lease_ttl / 4:
            self._touch_token()
        try:
            os.link(self._token, path)
        except FileNotFoundError:  # token or explore/ removed underneath us
            self._touch_token()
            self.directory.mkdir(parents=True, exist_ok=True)
            os.link(self._token, path)

    def _owns(self, path: Path) -> bool:
        try:
            stat = os.stat(path)
        except OSError:
            return False
        return (stat.st_ino, stat.st_dev) == self._token_id

    def lease_owner(self, key_or_path) -> Optional[str]:
        """Owner token of the live lease for ``key``, or None."""
        path = (
            key_or_path
            if isinstance(key_or_path, Path)
            else self._lease_path(key_or_path)
        )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lease = json.load(handle)
            return lease.get("owner") if isinstance(lease, dict) else None
        except (OSError, json.JSONDecodeError):
            return None

    def claim(self, key: Key) -> bool:
        """Try to take the lease on ``key``; True when this store owns it.

        A missing lease is claimed atomically; a stale one (mtime older
        than ``lease_ttl``) is reclaimed; a live one held by someone
        else — or already by us — yields False/True respectively without
        touching the file.

        Outcomes count into ``repro_lease_claims_total{outcome=...}`` with
        ``claimed`` (fresh take), ``held`` (already ours), ``reclaimed``
        (stale lease replaced), ``contested`` (someone else's), or
        ``degraded`` (the link failed, so we proceed unclaimed).
        """
        try:
            outcome, owned = self._claim(key)
        except OSError as exc:  # no hard links here (EPERM, ENOTSUP, EXDEV)
            warnings.warn(
                f"lease link failed ({exc}); proceeding without a claim",
                StoreDegradedWarning,
                stacklevel=2,
            )
            outcome, owned = "degraded", True  # fail open
        _CLAIMS.inc(outcome)
        return owned

    def _claim(self, key: Key) -> Tuple[str, bool]:
        path = self._lease_path(key)
        try:
            faults.check("lease_link")
            self._link_token(path)
            return "claimed", True
        except FileExistsError:
            pass
        try:
            lease = os.stat(path)
        except FileNotFoundError:
            return "contested", False  # released between link and stat
        if (lease.st_ino, lease.st_dev) == self._token_id:
            return "held", True
        if time.time() - lease.st_mtime <= self.lease_ttl:
            return "contested", False
        # Stale: replace it with our own link, then read back — of
        # several racing reclaimers only the last writer sees its own
        # inode and proceeds. A reclaim cut before its rename leaves a
        # link that fsck ages out like any lease.
        temp = self.directory / f".reclaim-{uuid.uuid4().hex}.lease"
        faults.check("reclaim_link")
        self._link_token(temp)
        try:
            faults.check("reclaim_replace")
            os.replace(temp, path)
        except OSError:
            os.unlink(temp)
            raise
        time.sleep(0)  # let racing replacers land
        if self._owns(path):
            return "reclaimed", True
        return "contested", False

    def release(self, key: Key) -> None:
        """Drop our lease on ``key`` (a lease we don't own is left alone)."""
        path = self._lease_path(key)
        if self._owns(path):
            try:
                faults.check("lease_release")
                path.unlink()
            except OSError:
                pass

    def heartbeat(self, key: Key) -> None:
        """Refresh our lease's mtime so it doesn't go stale mid-run (and
        every other lease of this store: they all link one token)."""
        path = self._lease_path(key)
        if self._owns(path):
            try:
                faults.check("lease_heartbeat")
                os.utime(path)
                self._token_touched = time.time()
            except OSError:
                pass

    def leases(self) -> Iterator[Tuple[str, Optional[str], float, bool]]:
        """Live lease files: ``(digest, owner, age_seconds, stale)`` rows.

        What ``repro cache stats`` reports and a draining server logs —
        a lease outliving its owner shows up here until a peer reclaims
        it or ``fsck --remove`` sweeps it.
        """
        if not self.directory.is_dir():
            return
        now = time.time()
        for path in sorted(self.directory.glob("*.lease")):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # released between glob and stat
            yield path.stem, self.lease_owner(path), age, age > self.lease_ttl

    @contextmanager
    def hold(self, key: Key):
        """Context-managed claim; raises :class:`LeaseHeld` if contested."""
        key = _keyed(key)
        if not self.claim(key):
            raise LeaseHeld(
                f"lease on {key.digest[:12]}… held by another evaluator",
                owner=self.lease_owner(key),
            )
        try:
            yield
        finally:
            self.release(key)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Valid (current-schema) records on disk — same gate as ``get``."""
        return sum(1 for _ in self.records())

    def records(self) -> Iterator[Dict]:
        """All valid records, one per digest (damaged and stale-schema
        frames skipped)."""
        try:
            self._scan()
        except OSError:
            return  # no log yet
        for prefix in sorted(self._index):
            record = self._get(StoreKey(None, prefix))
            if record is not None:
                yield record

    def fsck(self, remove: bool = False) -> FsckReport:
        """Audit the store; optionally remove everything unhealthy.

        Classifies each frame of the log as ok (once per digest) /
        ``corrupt`` (damaged bytes, or a payload that is not a record) /
        ``stale_schema`` / ``foreign`` (the header digest is not the
        content address of the embedded key — a tampered frame), bytes
        after the last sound frame as ``torn``, each ``*.lease`` and
        owner token as stale when it has gone ``lease_ttl`` untouched,
        and each ``*.json`` file as ``legacy``. With ``remove=True``
        stale leases, then stale tokens and legacy files are deleted,
        and a log holding anything but one sound frame per digest is
        rewritten without the rest, so a second pass finds nothing.
        """
        report = FsckReport()
        leases = _stale(self.directory.glob("*.lease"), self.lease_ttl)
        tokens = _stale(self._token.parent.glob("*.token"), self.lease_ttl)
        legacy = sorted(self.directory.glob("*.json"))
        report.stale_leases = [path.name for path in leases]
        report.stale_tokens = [path.name for path in tokens]
        report.legacy = [path.name for path in legacy]
        compact = Path(f"{self.log}.compact")  # what a cut compaction left
        if remove:
            report.removed = _unlink_all(leases + tokens + legacy + [compact])
        try:
            log = open(self.log, "rb")
        except FileNotFoundError:
            return report
        with log:
            data = log.read()
            kept, done, dropped = {}, 0, 0
            for match in _frames(data):
                start, end = match.span()
                if start > done:  # damaged bytes before this frame
                    report.corrupt.append(f"{self.log.name}@{done}")
                    dropped += 1
                verdict = self._verdict(match)
                if verdict:
                    getattr(report, verdict).append(f"{self.log.name}@{start}")
                if verdict or match.group(1) in kept:
                    dropped += 1
                else:
                    kept[match.group(1)] = match.group(0)
                done = end
            if done < len(data):
                report.torn.append(f"{self.log.name}@{done}")
                dropped += 1
            report.ok = len(kept)
            if not (remove and dropped):
                return report
            try:  # write the kept frames as the new log, renamed over it
                faults.check("compact_write")
                flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                with os.fdopen(os.open(compact, flags, 0o600), "wb") as handle:
                    handle.write(b"".join(kept.values()))
                faults.check("compact_rename")
                os.replace(compact, self.log)
                log.seek(done)  # and carry over what writers added meanwhile
                late = b"".join(match.group(0) for match in _frames(log.read()))
                if late:
                    with open(self.log, "ab") as handle:
                        handle.write(late)
            except OSError as exc:
                warnings.warn(f"could not compact {self.log} ({exc})",
                              StoreDegradedWarning, stacklevel=2)
                return report
        report.compacted, report.removed = True, report.removed + dropped
        return report

    @staticmethod
    def _verdict(match: "re.Match[bytes]") -> Optional[str]:
        """The :class:`FsckReport` list a sound frame goes on (None: ok)."""
        try:
            record = json.loads(match.group(4))
        except ValueError:
            record = None
        if not isinstance(record, dict):
            return "corrupt"
        if record.get("schema") != SCHEMA_VERSION:
            return "stale_schema"
        key = record.get("key")
        if not isinstance(key, dict) or key_digest(key).encode() != match.group(1):
            return "foreign"  # filed under another key's address
        return None

    def clear(self) -> int:
        """Delete every stored evaluation; returns the number removed.

        The log, leases and legacy per-record files all go; a live
        writer's next put makes a fresh log.
        """
        removed = len(self)
        _unlink_all([self.log, Path(f"{self.log}.compact"),
                     *self.directory.glob("*.lease"),
                     *self.directory.glob("*.json")])
        if self._close is not None:
            self._close()
        self._fd = self._close = None
        self._index.clear()
        self._indexed = 0
        return removed
