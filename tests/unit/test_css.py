"""Unit tests for repro.codes.css: generic CSS machinery."""

import numpy as np
import pytest

from repro.codes.css import CssCode, gf2_in_rowspace, gf2_rank
from repro.codes.steane import HAMMING_PARITY_CHECK, STEANE


class TestGf2Helpers:
    def test_rank_identity(self):
        assert gf2_rank(np.eye(3, dtype=np.uint8)) == 3

    def test_rank_dependent_rows(self):
        m = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert gf2_rank(m) == 1

    def test_rank_zero_matrix(self):
        assert gf2_rank(np.zeros((2, 4), dtype=np.uint8)) == 0

    def test_hamming_rank(self):
        assert gf2_rank(HAMMING_PARITY_CHECK) == 3

    def test_in_rowspace_true(self):
        row_sum = (HAMMING_PARITY_CHECK[0] + HAMMING_PARITY_CHECK[1]) % 2
        assert gf2_in_rowspace(HAMMING_PARITY_CHECK, row_sum)

    def test_in_rowspace_false(self):
        vec = np.zeros(7, dtype=np.uint8)
        vec[0] = 1
        assert not gf2_in_rowspace(HAMMING_PARITY_CHECK, vec)


class TestCssValidation:
    def test_rejects_noncommuting_stabilizers(self):
        with pytest.raises(ValueError):
            CssCode(
                name="bad",
                n=2,
                k=1,
                d=1,
                x_stabilizers=[[1, 0]],
                z_stabilizers=[[1, 1]],
                logical_x=[1, 1],
                logical_z=[0, 1],
            )

    def test_rejects_commuting_logicals(self):
        with pytest.raises(ValueError):
            CssCode(
                name="bad",
                n=3,
                k=1,
                d=1,
                x_stabilizers=np.zeros((0, 3)),
                z_stabilizers=np.zeros((0, 3)),
                logical_x=[1, 1, 0],
                logical_z=[1, 1, 0],
            )

    def test_parameters_triple(self):
        assert STEANE.parameters == (7, 1, 3)

    def test_str_format(self):
        assert str(STEANE) == "[[7,1,3]] Steane"


class TestSyndromes:
    def test_no_error_zero_syndrome(self):
        zero = np.zeros(7, dtype=np.uint8)
        assert not STEANE.x_error_syndrome(zero).any()

    def test_single_error_unique_syndromes(self):
        syndromes = set()
        for q in range(7):
            err = np.zeros(7, dtype=np.uint8)
            err[q] = 1
            syndromes.add(tuple(STEANE.x_error_syndrome(err).tolist()))
        assert len(syndromes) == 7  # all distinct, none zero

    def test_decode_single_error(self):
        for q in range(7):
            err = np.zeros(7, dtype=np.uint8)
            err[q] = 1
            correction = STEANE.decode_x_error(err)
            assert np.array_equal(correction, err)

    def test_decode_z_single_error(self):
        err = np.zeros(7, dtype=np.uint8)
        err[4] = 1
        assert np.array_equal(STEANE.decode_z_error(err), err)

    def test_correction_from_syndrome_roundtrip(self):
        err = np.zeros(7, dtype=np.uint8)
        err[2] = 1
        syndrome = STEANE.x_error_syndrome(err)
        assert np.array_equal(STEANE.correction_from_x_syndrome(syndrome), err)

    def test_stabilizer_error_harmless(self):
        # A stabilizer row acts trivially: not logical.
        assert not STEANE.is_logical_x(HAMMING_PARITY_CHECK[0])
        assert not STEANE.is_logical_z(HAMMING_PARITY_CHECK[2])

    def test_logical_operator_detected(self):
        ones = np.ones(7, dtype=np.uint8)
        assert STEANE.is_logical_x(ones)
        assert STEANE.is_logical_z(ones)

    def test_weight_two_error_uncorrectable(self):
        err = np.zeros(7, dtype=np.uint8)
        err[0] = err[6] = 1
        assert STEANE.is_logical_x(err)

    def test_single_error_correctable(self):
        err = np.zeros(7, dtype=np.uint8)
        err[3] = 1
        assert not STEANE.is_uncorrectable(err, np.zeros(7, dtype=np.uint8))

    def test_weight3_logical_z_representative(self):
        # Z on {1,3,5} is ones + stabilizer 1010101: a logical Z.
        rep = np.zeros(7, dtype=np.uint8)
        rep[[1, 3, 5]] = 1
        assert not STEANE.z_error_syndrome(rep).any()
        assert STEANE.is_logical_z(rep)


class TestParityGrading:
    """Logical grading is a parity check against the opposite logical;
    it must agree with the row-space rule on every pattern."""

    @staticmethod
    def _rank_rule(stabilizers, residual, syndrome):
        if syndrome.any():
            return True
        return not gf2_in_rowspace(stabilizers, residual)

    def test_every_x_pattern_matches_rank_rule(self):
        for bits in range(128):
            err = np.array([(bits >> i) & 1 for i in range(7)], dtype=np.uint8)
            residual = (err + STEANE.decode_x_error(err)) % 2
            expected = self._rank_rule(
                STEANE.x_stabilizers, residual, STEANE.x_error_syndrome(residual)
            )
            assert STEANE.is_logical_x(err) == expected, err

    def test_every_z_pattern_matches_rank_rule(self):
        for bits in range(128):
            err = np.array([(bits >> i) & 1 for i in range(7)], dtype=np.uint8)
            residual = (err + STEANE.decode_z_error(err)) % 2
            expected = self._rank_rule(
                STEANE.z_stabilizers, residual, STEANE.z_error_syndrome(residual)
            )
            assert STEANE.is_logical_z(err) == expected, err

    def test_rejects_k_other_than_one(self):
        with pytest.raises(ValueError, match="k=1"):
            CssCode(
                name="two",
                n=7,
                k=2,
                d=3,
                x_stabilizers=HAMMING_PARITY_CHECK,
                z_stabilizers=HAMMING_PARITY_CHECK,
                logical_x=np.ones(7, dtype=np.uint8),
                logical_z=np.ones(7, dtype=np.uint8),
            )

    def test_rejects_stabilizers_encoding_more_than_one_qubit(self):
        with pytest.raises(ValueError, match="exactly one qubit"):
            CssCode(
                name="short",
                n=7,
                k=1,
                d=3,
                x_stabilizers=HAMMING_PARITY_CHECK[:2],
                z_stabilizers=HAMMING_PARITY_CHECK,
                logical_x=np.ones(7, dtype=np.uint8),
                logical_z=np.ones(7, dtype=np.uint8),
            )
