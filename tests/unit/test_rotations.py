"""Unit tests for repro.ancilla.rotations: Fowler synthesis."""

import math

import numpy as np
import pytest

from repro.ancilla.rotations import (
    PRECOMPUTED_WORDS,
    RotationSynthesizer,
    default_synthesizer,
    recursive_rotation_expected_latency,
    rz_matrix,
    trace_distance,
)
from repro.circuits import Circuit
from repro.circuits.gate import GateType
from repro.kernels.decompose import decompose_to_encoded_gates
from repro.tech import ION_TRAP
from repro.testing.rotations import crz_decomposition_t_count, search_word

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


class TestDistanceMetric:
    def test_zero_for_equal(self):
        assert trace_distance(np.eye(2), np.eye(2)) == 0.0

    def test_phase_invariant(self):
        u = rz_matrix(0.3)
        assert trace_distance(u, np.exp(1j * 1.2) * u) < 1e-12

    def test_positive_for_different(self):
        assert trace_distance(np.eye(2), rz_matrix(math.pi)) > 0.5

    def test_accurate_at_tiny_distances(self):
        """dist(I, RZ(t)) = sqrt(2) sin(t/4) to full relative precision,
        with no cancellation as the overlap approaches 1."""
        for k in (3, 10, 20, 23, 30):
            angle = math.pi / 2 ** k
            assert trace_distance(np.eye(2), rz_matrix(angle)) == pytest.approx(
                math.sqrt(2) * math.sin(angle / 4), rel=1e-12
            )


class TestExactCases:
    def test_k0_is_z(self):
        assert default_synthesizer().synthesize(0).gates == (GateType.Z,)

    def test_k1_is_s(self):
        r = default_synthesizer().synthesize(1)
        assert r.gates == (GateType.S,)
        assert r.exact

    def test_k2_is_t(self):
        r = default_synthesizer().synthesize(2)
        assert r.gates == (GateType.T,)
        assert r.t_count == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            default_synthesizer().synthesize(-1)


class TestPrecomputedWords:
    @pytest.mark.parametrize("k", sorted(PRECOMPUTED_WORDS))
    def test_claimed_error_is_accurate(self, k):
        word, claimed = PRECOMPUTED_WORDS[k]
        actual = trace_distance(word_matrix(word), rz_matrix(math.pi / 2 ** k))
        assert actual == pytest.approx(claimed, abs=1e-4)

    @pytest.mark.parametrize("k", sorted(PRECOMPUTED_WORDS))
    def test_word_beats_identity(self, k):
        word, claimed = PRECOMPUTED_WORDS[k]
        identity_err = trace_distance(np.eye(2), rz_matrix(math.pi / 2 ** k))
        assert claimed < identity_err

    def test_synthesizer_uses_precomputed(self):
        r = default_synthesizer().synthesize(4)
        assert r.gates == PRECOMPUTED_WORDS[4][0]

    @pytest.mark.parametrize("k", sorted(PRECOMPUTED_WORDS))
    def test_word_beats_a_shallow_search(self, k):
        """No word of up to eight gates gets closer than the deep word."""
        word, claimed = PRECOMPUTED_WORDS[k]
        _, shallow = search_word(
            rz_matrix(math.pi / 2 ** k), max_length=8, tolerance=claimed / 2
        )
        assert claimed <= shallow + 1e-4

    def test_no_word_within_a_tight_tolerance(self):
        with pytest.raises(ValueError):
            RotationSynthesizer(tolerance=1e-4).synthesize(8)


class TestSynthesizedRotation:
    def test_t_count_counts_both_t_types(self):
        r = default_synthesizer().synthesize(5)
        manual = sum(1 for g in r.gates if g in (GateType.T, GateType.T_DAG))
        assert r.t_count == manual

    def test_tiny_rotation_is_identity_word(self):
        r = default_synthesizer().synthesize(12)
        assert r.length == 0
        assert r.error < 0.01

    def test_search_improves_with_tolerance_for_k3(self):
        word, error = search_word(
            rz_matrix(math.pi / 8), max_length=6, tolerance=0.2
        )
        assert error <= 0.2
        assert trace_distance(
            word_matrix(word), rz_matrix(math.pi / 8)
        ) == pytest.approx(error)


class TestSynthesizerValidation:
    def test_bad_max_length(self):
        with pytest.raises(ValueError):
            search_word(np.eye(2), max_length=0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            RotationSynthesizer(tolerance=0.0)

    def test_cache_returns_same_object(self):
        synth = RotationSynthesizer()
        assert synth.synthesize(4) is synth.synthesize(4)


class TestRecursiveConstruction:
    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            recursive_rotation_expected_latency(2, ION_TRAP)

    def test_k3_single_stage(self):
        # One CX + one measurement expected, no X in expectation.
        latency = recursive_rotation_expected_latency(3, ION_TRAP)
        assert latency == ION_TRAP.t_2q + ION_TRAP.t_meas

    def test_expected_latency_bounded_by_two_stages(self):
        """Expected CX count converges to 2, so latency is bounded."""
        deep = recursive_rotation_expected_latency(20, ION_TRAP)
        bound = 2 * (ION_TRAP.t_2q + ION_TRAP.t_meas) + ION_TRAP.t_1q
        assert deep < bound

    def test_monotone_in_k(self):
        values = [
            recursive_rotation_expected_latency(k, ION_TRAP) for k in range(3, 10)
        ]
        assert values == sorted(values)


class TestCrzTCount:
    def test_cz_needs_no_ancillae(self):
        assert crz_decomposition_t_count(1, default_synthesizer()) == 0

    def test_crz_k3_uses_three_rotations(self):
        synth = default_synthesizer()
        expected = 3 * synth.synthesize(4).t_count
        assert crz_decomposition_t_count(3, synth) == expected

    def test_matches_the_kernel_decomposition(self):
        """Lowering one controlled rotation spends exactly the T gates
        the analytic count predicts. (k = 2 lowers to the exact
        controlled-S, three T gates, and is left out.)"""
        synth = default_synthesizer()
        for k in (1, 3, 4, 6):
            circ = Circuit(2)
            circ.crz(0, 1, k)
            lowered = decompose_to_encoded_gates(circ, synth)
            t_gates = sum(
                1 for g in lowered if g.gate_type in (GateType.T, GateType.T_DAG)
            )
            assert t_gates == crz_decomposition_t_count(k, synth)
