"""Unit tests for repro.testing.classical."""

import pytest

from repro.circuits import Circuit
from repro.testing.classical import (
    evaluate_reversible,
    pack_bits,
    run_adder,
    unpack_bits,
)


class TestBitPacking:
    def test_roundtrip(self):
        for value in (0, 1, 5, 255):
            assert unpack_bits(pack_bits(value, 8)) == value

    def test_little_endian(self):
        assert pack_bits(1, 3) == [1, 0, 0]
        assert pack_bits(4, 3) == [0, 0, 1]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(-1, 3)


class TestEvaluateReversible:
    def test_x_flips(self):
        circ = Circuit(1).x(0)
        assert evaluate_reversible(circ, [0]) == [1]

    def test_cx_copies(self):
        circ = Circuit(2).cx(0, 1)
        assert evaluate_reversible(circ, [1, 0]) == [1, 1]
        assert evaluate_reversible(circ, [0, 0]) == [0, 0]

    def test_ccx_ands(self):
        circ = Circuit(3).ccx(0, 1, 2)
        assert evaluate_reversible(circ, [1, 1, 0]) == [1, 1, 1]
        assert evaluate_reversible(circ, [1, 0, 0]) == [1, 0, 0]

    def test_swap(self):
        circ = Circuit(2).swap(0, 1)
        assert evaluate_reversible(circ, [1, 0]) == [0, 1]

    def test_non_classical_gate_rejected(self):
        circ = Circuit(1).h(0)
        with pytest.raises(ValueError):
            evaluate_reversible(circ, [0])

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            evaluate_reversible(Circuit(2), [0])

    def test_reversibility(self):
        """Running a circuit then its mirror restores the input."""
        circ = Circuit(3).ccx(0, 1, 2).cx(0, 1).x(0)
        mirror = Circuit(3).x(0).cx(0, 1).ccx(0, 1, 2)
        state = [1, 0, 1]
        out = evaluate_reversible(mirror, evaluate_reversible(circ, state))
        assert out == state


class TestRunAdder:
    def test_reports_registers(self):
        # A trivial 1-bit "adder": sum bit = a XOR b via CX chains.
        circ = Circuit(3).cx(0, 2).cx(1, 2)
        out = run_adder(circ, [0], [1], [2], 1, 1)
        assert out["sum"] == 0  # 1 XOR 1, no carry in this toy
        assert out["a"] == 1
