"""Property-based tests: both adders compute a + b for arbitrary inputs."""

from hypothesis import given, settings, strategies as st

from repro.testing.classical import run_adder
from repro.kernels.qcla import qcla_circuit, qcla_registers
from repro.kernels.qrca import qrca_circuit, qrca_registers

# Circuits are immutable; build once per width.
_QRCA = {w: (qrca_registers(w), qrca_circuit(w)) for w in (3, 8, 13)}
_QCLA = {w: (qcla_registers(w), qcla_circuit(w)) for w in (3, 8, 13)}


class TestQrcaProperties:
    @given(st.integers(0, 2 ** 13 - 1), st.integers(0, 2 ** 13 - 1))
    @settings(max_examples=80)
    def test_adds_13bit(self, a, b):
        regs, circ = _QRCA[13]
        out = run_adder(circ, regs.a, regs.b, regs.b + [regs.b_high], a, b, regs.c)
        assert out["sum"] == a + b

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60)
    def test_preserves_a_and_clears_carries(self, a, b):
        regs, circ = _QRCA[8]
        out = run_adder(circ, regs.a, regs.b, regs.b + [regs.b_high], a, b, regs.c)
        assert out["a"] == a
        assert out["ancilla"] == 0

    @given(st.integers(0, 7))
    def test_adding_zero_is_identity(self, a):
        regs, circ = _QRCA[3]
        out = run_adder(circ, regs.a, regs.b, regs.b + [regs.b_high], a, 0, regs.c)
        assert out["sum"] == a


class TestQclaProperties:
    @given(st.integers(0, 2 ** 13 - 1), st.integers(0, 2 ** 13 - 1))
    @settings(max_examples=80)
    def test_adds_13bit(self, a, b):
        regs, circ = _QCLA[13]
        out = run_adder(circ, regs.a, regs.b, regs.z, a, b, [])
        assert out["sum"] == a + b

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60)
    def test_restores_inputs_and_tree(self, a, b):
        regs, circ = _QCLA[8]
        tree = [regs.p(t, i) for (t, i) in regs._p_tree]
        out = run_adder(circ, regs.a, regs.b, regs.z, a, b, tree)
        assert out["a"] == a
        assert out["ancilla"] == 0

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40)
    def test_agrees_with_qrca(self, a, b):
        """The two adders must agree everywhere — same function, different
        depth/area trade-off."""
        qr_regs, qr = _QRCA[8]
        qc_regs, qc = _QCLA[8]
        ripple = run_adder(qr, qr_regs.a, qr_regs.b,
                           qr_regs.b + [qr_regs.b_high], a, b, qr_regs.c)
        lookahead = run_adder(qc, qc_regs.a, qc_regs.b, qc_regs.z, a, b, [])
        assert ripple["sum"] == lookahead["sum"]

    @given(st.integers(0, 2 ** 13 - 1), st.integers(0, 2 ** 13 - 1))
    @settings(max_examples=30)
    def test_commutative(self, a, b):
        regs, circ = _QCLA[13]
        ab = run_adder(circ, regs.a, regs.b, regs.z, a, b, [])
        ba = run_adder(circ, regs.a, regs.b, regs.z, b, a, [])
        assert ab["sum"] == ba["sum"]
