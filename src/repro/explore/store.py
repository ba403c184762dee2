"""Disk-backed, content-addressed store for exploration evaluations.

Every simulator evaluation an exploration performs is persisted as one
JSON file under ``<root>/explore/`` (default root: ``.repro_cache/`` in
the working directory, overridable via the ``REPRO_CACHE_DIR``
environment variable). The filename is the SHA-256 of the evaluation's
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

Durability and fault behaviour:

* the store is a cache of deterministic recomputations, so records are
  written as compact canonical JSON (older ``indent=1`` records read
  the same) and published atomically (temp file + ``os.replace``) but
  not fsync'd: concurrent explorations sharing a store never observe
  torn records, and a record that power loss leaves empty or torn reads
  as a miss and is recomputed. Only the exploration journal
  (``journal.jsonl``, see :mod:`repro.explore.engine`) is fsync'd,
  since resume depends on it;
* a temp file is ``explore/.inflight-*.tmp`` (:func:`tempfile.mkstemp`:
  ``O_EXCL``, mode 0600). A writer killed before its ``os.replace``
  leaves one behind, and so does a lease reclaim killed before its
  rename (that temp file is a link to the dead owner's token, below).
  Once one is ``lease_ttl`` old :meth:`fsck` reports it
  (``stale_temps``) and ``fsck --remove`` and :meth:`clear` delete it;
  a younger one may belong to a live writer and is left alone;
* a failed write (``ENOSPC``, read-only cache dir) degrades to a
  :class:`~repro.explore.errors.StoreDegradedWarning` instead of
  crashing the exploration — the evaluation lives on in memory;
* corrupt, torn or stale-schema files read as misses everywhere
  (:meth:`get`, :meth:`records`, :meth:`__len__` all apply the same
  schema gate).

Concurrency — the lease protocol:

Multiple evaluators sharing one store coordinate through *leases*
(``<digest>.lease`` beside the record). Each store instance keeps one
*owner token* under ``<root>/owners/`` holding its ``{"owner", "pid",
"claimed"}`` JSON, and a lease is a hard link to that token:
:meth:`claim` takes it with ``os.link`` (``EEXIST``: someone holds it),
so a cold miss creates one inode, the record's. A lease is ours when its
inode is our token's (one ``stat``), and its mtime is the token's: one
:meth:`heartbeat` at a batch boundary keeps every lease of the store
live, and :meth:`claim` refreshes a token older than ``lease_ttl / 4``
so no lease is born stale. A contender that fails to claim waits for the
record to appear; if the owner dies, its leases go stale (no heartbeat
for ``lease_ttl`` seconds) and a contender reclaims one by linking its
own token to a fresh temp name, ``os.replace``-ing that over the lease
and reading back the inode, so of several racing reclaimers exactly one
(the last writer) proceeds. ``fsck --remove`` deletes a token that is
stale and linked by no lease; its store recreates it on the next claim.
Where hard links are unsupported, :meth:`claim` fails open with a
:class:`~repro.explore.errors.StoreDegradedWarning`. The protocol is
cooperative — it deduplicates work; correctness never depends on it
because :meth:`put` is idempotent last-writer-wins.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import time
import uuid
import warnings
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
    """Unlink each of ``paths`` that still exists; returns how many."""
    removed = 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def default_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", _DEFAULT_ROOT))


def _fault_point(key: Dict) -> Optional[Dict]:
    """The design-point part of a key, for fault-rule matching."""
    point = key.get("point") if isinstance(key, dict) else None
    return point if isinstance(point, dict) else None


@dataclass
class FsckReport:
    """What :meth:`ResultStore.fsck` found (and optionally removed)."""

    ok: int = 0
    corrupt: List[str] = field(default_factory=list)
    stale_schema: List[str] = field(default_factory=list)
    foreign: List[str] = field(default_factory=list)
    stale_leases: List[str] = field(default_factory=list)
    stale_tokens: List[str] = field(default_factory=list)
    #: Temp files older than ``lease_ttl``: a writer died between
    #: creating one and publishing it.
    stale_temps: List[str] = field(default_factory=list)
    removed: int = 0

    @property
    def bad(self) -> int:
        return len(self.corrupt) + len(self.stale_schema) + len(self.foreign)


class ResultStore:
    """One JSON file per evaluation, named by the key's SHA-256.

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
        #: ``directory`` as a string with its separator: a read builds
        #: its record path by concatenation, not a join.
        self._prefix = os.path.join(os.fspath(self.directory), "")
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

    # ------------------------------------------------------------------

    def _path(self, key: Key) -> Path:
        return self.directory / f"{_keyed(key).digest}.json"

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
        """The stored record for ``key``, or None (corrupt files miss).

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
            path = f"{self._prefix}{key.digest}.json"
            with open(path, "rb", buffering=0) as handle:
                record = json.loads(handle.read())
        except (OSError, ValueError):  # ValueError: not JSON, or not UTF-8
            return None
        if not self._valid(record):
            return None
        return record

    def put(self, key: Key, record: Dict) -> bool:
        """Persist ``record`` under ``key`` (atomic, last-writer-wins).

        Not fsync'd: after power loss the record may read as a
        miss, and the point is then recomputed.

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
        )
        temp = None
        try:
            faults.check("store_put", _fault_point(key.document))
            fd, temp = self._mkstemp()
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp, self._path(key))
            temp = None
            return True
        except OSError as exc:
            warnings.warn(
                f"result store write failed ({exc}); continuing without "
                f"persistence for this evaluation",
                StoreDegradedWarning,
                stacklevel=2,
            )
            return False
        finally:
            if temp is not None:
                try:
                    os.unlink(temp)
                except OSError:
                    pass

    def _mkstemp(self) -> Tuple[int, str]:
        # Suffix must not be ".json": in-flight temp files would match
        # the "*.json" globs in __len__/records()/clear().
        try:
            return tempfile.mkstemp(
                dir=self.directory, prefix=".inflight-", suffix=".tmp"
            )
        except FileNotFoundError:  # first write, or explore/ was removed
            self.directory.mkdir(parents=True, exist_ok=True)
            return tempfile.mkstemp(
                dir=self.directory, prefix=".inflight-", suffix=".tmp"
            )

    # ------------------------------------------------------------------
    # Leases

    def _touch_token(self) -> None:
        """Refresh the owner token's mtime, recreating it if missing."""
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

    def _stale(self, path: Path) -> bool:
        """Whether ``path`` has gone ``lease_ttl`` without a write or touch."""
        try:
            return (time.time() - path.stat().st_mtime) > self.lease_ttl
        except OSError:
            return False

    def _stale_temps(self) -> List[Path]:
        """Temp files a dead writer left behind; a live one's are fresh."""
        return [
            path
            for path in sorted(self.directory.glob(".inflight-*.tmp"))
            if self._stale(path)
        ]

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
        # inode and proceeds.
        temp = self.directory / f".inflight-{uuid.uuid4().hex}.tmp"
        self._link_token(temp)
        try:
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
                path.unlink()
            except OSError:
                pass

    def heartbeat(self, key: Key) -> None:
        """Refresh our lease's mtime so it doesn't go stale mid-run (and
        every other lease of this store: they all link one token)."""
        path = self._lease_path(key)
        if self._owns(path):
            try:
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
        """All valid records (corrupt and stale-schema files skipped)."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if self._valid(record):
                yield record

    def fsck(self, remove: bool = False) -> FsckReport:
        """Audit the store; optionally remove everything unhealthy.

        Classifies each ``*.json`` entry as ok / ``corrupt`` (unreadable
        or not a record) / ``stale_schema`` / ``foreign`` (filename does
        not match the content address of the embedded key — a renamed or
        tampered file), each ``*.lease`` as live or stale, and each owner
        token as stale when no lease links it and it has not been
        touched for ``lease_ttl``, and each ``.inflight-*.tmp`` temp file
        older than ``lease_ttl`` as stale (its writer died before
        publishing it; a live writer's temp file is seconds old). With
        ``remove=True`` the unhealthy entries, stale leases, stale tokens
        and stale temp files are deleted, the temp files first, so a
        token whose only other link was one goes in the same pass.
        """
        report = FsckReport()
        # Temp files go first: a lease reclaim cut short leaves a temp
        # hard-linked to its dead owner's token, which must be unlinked
        # before the token's link count says whether it is stale.
        stale_temps = self._stale_temps()
        report.stale_temps = [path.name for path in stale_temps]
        if remove:
            report.removed += _unlink_all(stale_temps)
        now = time.time()
        for path in sorted(self._token.parent.glob("*.token")):
            try:
                stat = path.stat()
            except OSError:
                continue  # removed between glob and stat
            if stat.st_nlink == 1 and now - stat.st_mtime > self.lease_ttl:
                report.stale_tokens.append(path.name)
        for path in sorted(self.directory.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                report.corrupt.append(path.name)
                continue
            if not isinstance(record, dict):
                report.corrupt.append(path.name)
            elif record.get("schema") != SCHEMA_VERSION:
                report.stale_schema.append(path.name)
            elif (
                not isinstance(record.get("key"), dict)
                or key_digest(record["key"]) != path.stem
            ):
                report.foreign.append(path.name)
            else:
                report.ok += 1
        for path in sorted(self.directory.glob("*.lease")):
            if self._stale(path):
                report.stale_leases.append(path.name)
        if remove:
            report.removed += _unlink_all(
                [
                    self.directory / name
                    for name in report.corrupt
                    + report.stale_schema
                    + report.foreign
                    + report.stale_leases
                ]
                + [self._token.parent / name for name in report.stale_tokens]
            )
        return report

    def clear(self) -> int:
        """Delete every stored evaluation; returns the number removed.

        Leases and stale temp files go too (a live writer's temp file
        is left to be published).
        """
        if not self.directory.is_dir():
            return 0
        removed = _unlink_all(self.directory.glob("*.json"))
        _unlink_all([*self.directory.glob("*.lease"), *self._stale_temps()])
        return removed
