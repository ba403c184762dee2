"""The Circuit container: an ordered list of gates over indexed qubits."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.gate import Gate, GateType


class CircuitError(ValueError):
    """Raised on structurally invalid circuit construction."""


class Circuit:
    """An ordered sequence of :class:`Gate` operations over qubits 0..n-1.

    The container is append-only by convention; builders produce new
    circuits rather than mutating shared ones. Convenience methods exist
    for every gate in the set, e.g. ``circ.cx(0, 1)``, ``circ.t(2)``,
    ``circ.measure_z(3, "m0")``. All builder methods return ``self`` so
    construction chains.

    Args:
        num_qubits: Number of qubits addressed by this circuit.
        name: Optional human-readable name (used in reports).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 0:
            raise CircuitError(f"num_qubits must be >= 0, got {num_qubits}")
        self._num_qubits = num_qubits
        self._gates: List[Gate] = []
        self._result_bits: Dict[str, int] = {}
        self.name = name

    # ------------------------------------------------------------------
    # Introspection

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    @property
    def result_bits(self) -> Tuple[str, ...]:
        """Classical result-bit names in definition order."""
        return tuple(self._result_bits)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, qubits={self._num_qubits}, "
            f"gates={len(self._gates)})"
        )

    def gate_counts(self) -> Counter:
        """Histogram of gate types."""
        return Counter(g.gate_type for g in self._gates)

    def count(self, gate_type: GateType) -> int:
        return sum(1 for g in self._gates if g.gate_type == gate_type)

    def non_transversal_count(self) -> int:
        """Gates needing encoded-ancilla constructions when run encoded."""
        return sum(1 for g in self._gates if g.is_non_transversal)

    def two_qubit_count(self) -> int:
        return sum(1 for g in self._gates if g.is_two_qubit)

    def qubits_used(self) -> Tuple[int, ...]:
        used = sorted({q for g in self._gates for q in g.qubits})
        return tuple(used)

    def depth(self) -> int:
        """Circuit depth counting every gate as one time step."""
        frontier = [0] * self._num_qubits
        for gate in self._gates:
            level = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    # ------------------------------------------------------------------
    # Construction

    def append(self, gate: Gate) -> "Circuit":
        """Append a pre-built gate after validating its qubit indices."""
        for q in gate.qubits:
            if q >= self._num_qubits:
                raise CircuitError(
                    f"gate {gate.describe()} addresses qubit {q} but circuit "
                    f"has {self._num_qubits} qubits"
                )
        if gate.result is not None:
            if gate.result in self._result_bits:
                raise CircuitError(f"result bit {gate.result!r} already written")
            self._result_bits[gate.result] = len(self._gates)
        if gate.condition is not None and gate.condition not in self._result_bits:
            raise CircuitError(
                f"gate conditioned on unwritten bit {gate.condition!r}"
            )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def compose(
        self, other: "Circuit", qubit_map: Optional[Sequence[int]] = None
    ) -> "Circuit":
        """Append another circuit, remapping its qubits through ``qubit_map``.

        Args:
            other: Circuit to inline. Its result-bit names are prefixed with
                its name if they would collide.
            qubit_map: ``qubit_map[i]`` is the qubit in ``self`` that
                ``other``'s qubit ``i`` maps to. Identity when omitted.
        """
        if qubit_map is None:
            qubit_map = range(other.num_qubits)
        qubit_map = list(qubit_map)
        if len(qubit_map) < other.num_qubits:
            raise CircuitError(
                f"qubit_map covers {len(qubit_map)} qubits, "
                f"sub-circuit needs {other.num_qubits}"
            )
        rename: Dict[str, str] = {}
        for bit in other.result_bits:
            new_bit = bit
            if new_bit in self._result_bits:
                suffix = 0
                while f"{other.name}.{bit}.{suffix}" in self._result_bits:
                    suffix += 1
                new_bit = f"{other.name}.{bit}.{suffix}"
            rename[bit] = new_bit
        for gate in other:
            mapped = Gate(
                gate_type=gate.gate_type,
                qubits=tuple(qubit_map[q] for q in gate.qubits),
                angle_k=gate.angle_k,
                condition=rename.get(gate.condition, gate.condition)
                if gate.condition
                else None,
                result=rename.get(gate.result) if gate.result else None,
                tag=gate.tag,
            )
            self.append(mapped)
        return self

    def copy(self, name: Optional[str] = None) -> "Circuit":
        dup = Circuit(self._num_qubits, name or self.name)
        dup._gates = list(self._gates)
        dup._result_bits = dict(self._result_bits)
        return dup

    # ------------------------------------------------------------------
    # Gate shorthands

    def _add(self, gate_type: GateType, *qubits: int, **kwargs) -> "Circuit":
        return self.append(Gate(gate_type, tuple(qubits), **kwargs))

    def prep_0(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.PREP_0, q, **kw)

    def x(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.X, q, **kw)

    def y(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.Y, q, **kw)

    def z(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.Z, q, **kw)

    def h(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.H, q, **kw)

    def s(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.S, q, **kw)

    def sdg(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.S_DAG, q, **kw)

    def t(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.T, q, **kw)

    def tdg(self, q: int, **kw) -> "Circuit":
        return self._add(GateType.T_DAG, q, **kw)

    def rz(self, q: int, k: int, **kw) -> "Circuit":
        return self._add(GateType.RZ, q, angle_k=k, **kw)

    def cx(self, control: int, target: int, **kw) -> "Circuit":
        return self._add(GateType.CX, control, target, **kw)

    def cz(self, control: int, target: int, **kw) -> "Circuit":
        return self._add(GateType.CZ, control, target, **kw)

    def cs(self, control: int, target: int, **kw) -> "Circuit":
        return self._add(GateType.CS, control, target, **kw)

    def crz(self, control: int, target: int, k: int, **kw) -> "Circuit":
        return self._add(GateType.CRZ, control, target, angle_k=k, **kw)

    def swap(self, a: int, b: int, **kw) -> "Circuit":
        return self._add(GateType.SWAP, a, b, **kw)

    def ccx(self, control_a: int, control_b: int, target: int, **kw) -> "Circuit":
        return self._add(GateType.CCX, control_a, control_b, target, **kw)

    def measure_z(self, q: int, result: str, **kw) -> "Circuit":
        return self._add(GateType.MEASURE_Z, q, result=result, **kw)

    def measure_x(self, q: int, result: str, **kw) -> "Circuit":
        return self._add(GateType.MEASURE_X, q, result=result, **kw)
