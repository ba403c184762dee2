"""Shared fixtures.

Kernel characterizations are session-scoped: building and analyzing the
32-bit kernels (especially the QFT with synthesized rotations) costs a
few seconds each, and they are immutable once constructed.
"""

import threading
import zlib
from pathlib import Path

import pytest

import repro.arch.batched as batched_module
import repro.explore.evaluator as evaluator_module
from repro.explore.store import canonical_json, key_digest
from repro.kernels import analyze_kernel

#: simulate_batch's two routes for a lowerable group: one vectorized
#: kernel pass, or per-point ``DataflowSimulator.run()``.
BATCH_ROUTES = ("vectorized", "serial")


@pytest.fixture
def batch_routes(monkeypatch):
    """Run a test body once per ``simulate_batch`` route.

    ``for route in batch_routes(): ...`` forces the private shape rule
    (``repro.arch.batched._vectorize``) to each route in turn, so the
    equivalence suites keep the vectorized kernels under the oracle at
    shapes the rule would send to ``run()`` (1-point batches, tiny
    circuits), and the serial route under it at shapes it would batch.
    ``batch_routes("vectorized")`` forces one route. The last forced
    route holds until the test ends.
    """

    def routes(*only):
        for route in only or BATCH_ROUTES:
            monkeypatch.setattr(
                batched_module,
                "_vectorize",
                lambda *shape, vectorize=route == "vectorized": vectorize,
            )
            yield route

    return routes


class CanonicalizeCounter:
    """``_canonicalize`` calls made by the test's own thread, and the
    points the strategies it watches proposed."""

    def __init__(self) -> None:
        self.calls = 0
        self.proposed = 0

    def watch(self, strategy):
        ask = strategy.ask

        def counted(remaining):
            asked = ask(remaining)
            self.proposed += len(asked)
            return asked

        strategy.ask = counted
        return strategy


@pytest.fixture
def canonicalize_counter(monkeypatch):
    """Count ``repro.explore.evaluator._canonicalize`` calls on the
    calling thread (an in-process server's handler threads are not
    counted) against the points ``counter.watch(strategy)`` proposes."""
    counter = CanonicalizeCounter()
    real = evaluator_module._canonicalize
    caller = threading.get_ident()

    def counting(*args, **kwargs):
        if threading.get_ident() == caller:
            counter.calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluator_module, "_canonicalize", counting)
    return counter


@pytest.fixture(scope="session")
def qrca32():
    return analyze_kernel("qrca", 32)


@pytest.fixture(scope="session")
def qcla32():
    return analyze_kernel("qcla", 32)


@pytest.fixture(scope="session")
def qft32():
    return analyze_kernel("qft", 32)


@pytest.fixture(scope="session")
def qrca8():
    return analyze_kernel("qrca", 8)


@pytest.fixture(scope="session")
def qcla8():
    return analyze_kernel("qcla", 8)


@pytest.fixture(scope="session")
def qft8():
    return analyze_kernel("qft", 8)


@pytest.fixture(scope="session")
def all_kernels32(qrca32, qcla32, qft32):
    return [qrca32, qcla32, qft32]


def _frame(digest, payload):
    if isinstance(payload, dict):
        payload = canonical_json(payload).encode("utf-8")
    return b"%s %d %d\n%s\n" % (
        digest.encode("ascii"), len(payload), zlib.crc32(payload), payload
    )


@pytest.fixture
def append_log():
    """``append_log(root, *chunks)`` appends to a result store's record
    log as another writer would, and returns the log's path. A record
    dict is framed under its key's digest, a ``(digest, record or
    payload bytes)`` pair under that digest, and bytes go in as they
    are (damage, a torn tail)."""

    def write(root, *chunks):
        path = Path(root) / "explore" / "records.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as handle:
            for chunk in chunks:
                if isinstance(chunk, dict):
                    chunk = _frame(key_digest(chunk["key"]), chunk)
                elif isinstance(chunk, tuple):
                    chunk = _frame(*chunk)
                handle.write(chunk)
        return path

    return write
