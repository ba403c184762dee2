"""Shared fixtures.

Kernel characterizations are session-scoped: building and analyzing the
32-bit kernels (especially the QFT with synthesized rotations) costs a
few seconds each, and they are immutable once constructed.
"""

import pytest

import repro.arch.batched as batched_module
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
