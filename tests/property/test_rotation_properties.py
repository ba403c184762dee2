"""Property-based tests: rotation synthesis invariants."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.ancilla.rotations import (
    default_synthesizer,
    rz_matrix,
    trace_distance,
)
from repro.circuits.gate import GateType

_MATRICES = {
    GateType.H: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    GateType.T: np.diag([1, np.exp(1j * math.pi / 4)]),
    GateType.T_DAG: np.diag([1, np.exp(-1j * math.pi / 4)]),
    GateType.S: np.diag([1, 1j]),
    GateType.S_DAG: np.diag([1, -1j]),
    GateType.Z: np.diag([1, -1]),
}


def word_matrix(gates):
    m = np.eye(2, dtype=complex)
    for g in gates:
        m = _MATRICES[g] @ m
    return m


class TestSynthesisInvariants:
    @given(st.integers(0, 16))
    @settings(max_examples=20, deadline=None)
    def test_reported_error_is_truthful(self, k):
        r = default_synthesizer().synthesize(k)
        actual = trace_distance(word_matrix(r.gates), rz_matrix(math.pi / 2 ** k))
        assert abs(actual - r.error) < 1e-4

    @given(st.integers(0, 16))
    @settings(max_examples=20, deadline=None)
    def test_error_never_worse_than_identity(self, k):
        """The empty word is always available, so synthesis can never do
        worse than doing nothing."""
        r = default_synthesizer().synthesize(k)
        identity_err = trace_distance(np.eye(2), rz_matrix(math.pi / 2 ** k))
        assert r.error <= identity_err + 1e-12

    @given(st.integers(0, 16))
    @settings(max_examples=20, deadline=None)
    def test_t_count_le_length(self, k):
        r = default_synthesizer().synthesize(k)
        assert r.t_count <= r.length

    @given(st.integers(0, 16))
    @settings(max_examples=20, deadline=None)
    def test_exact_flag_means_zero_error(self, k):
        r = default_synthesizer().synthesize(k)
        if r.exact:
            assert r.error < 1e-9


class TestMetricProperties:
    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @example(0.0, 7.305353942776971e-08)  # tiny distances, once flaky
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b):
        u, v, w = rz_matrix(a), rz_matrix(b), rz_matrix((a + b) / 2)
        assert trace_distance(u, v) <= (
            trace_distance(u, w) + trace_distance(w, v) + 1e-9
        )

    @given(st.floats(0, 2 * math.pi))
    @settings(max_examples=50)
    def test_symmetry(self, angle):
        u, v = rz_matrix(angle), rz_matrix(angle / 3)
        assert abs(trace_distance(u, v) - trace_distance(v, u)) < 1e-12

    @given(st.floats(0, 2 * math.pi))
    @settings(max_examples=50)
    def test_self_distance_zero(self, angle):
        assert trace_distance(rz_matrix(angle), rz_matrix(angle)) < 1e-12
