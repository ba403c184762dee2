"""Ancilla supply models.

A supply answers one question: given that a gate wants ``count`` encoded
ancillae of some kind no earlier than time ``earliest``, when are they
available? Production is modeled as a constant rate with unlimited
buffering (factories never stall waiting for consumers; finished ancillae
wait in output ports), which matches the paper's steady-throughput framing
in Figure 8.

Kinds are the two the paper tracks: "zero" (corrected encoded zeros for
QEC) and "pi8" (encoded pi/8 ancillae for non-transversal gates).

Every supply *describes* its availability math declaratively via
``ready_spec()``: a :class:`ReadySpec` mapping each tracked kind to a
closed-form ready-time description (steady-rate counter or per-qubit
dedicated counters; untracked kinds are unconstrained). That spec is the
whole contract with the dataflow engines (see :class:`AncillaSupply`).
The built-in supplies also keep a per-gate :meth:`acquire`, the
semantics the test oracle :func:`repro.testing.reference.run_reference`
replays to check the lowering against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Union

ZERO = "zero"
PI8 = "pi8"


@dataclass(frozen=True)
class SteadyKindSpec:
    """Closed form for one globally-pooled FIFO counter.

    The k-th ancilla (1-based, counting from ``consumed``) exists at
    ``(consumed + k) / rate_per_us``; a zero rate means the kind never
    becomes available (and, matching :class:`_RateCounter`, consumption
    is *not* recorded for it). Values are a snapshot taken at
    :meth:`ready_spec` time — engines must commit consumption back via
    ``advance(kind, total)`` after a lowered run.
    """

    rate_per_us: float
    consumed: int


@dataclass(frozen=True, eq=False)
class DedicatedKindSpec:
    """Closed form for per-qubit private counters (the QLA model).

    ``rates_per_us[q]`` / ``consumed[q]`` describe qubit ``q``'s private
    generator. The lists are the supply's *live* state, not a snapshot:
    engines read them when lowering and never write them, committing
    consumption afterwards via ``advance_per_qubit(kind, counts)``.
    """

    rates_per_us: List[float]
    consumed: List[int]


KindSpec = Union[SteadyKindSpec, DedicatedKindSpec]


@dataclass(frozen=True, eq=False)
class ReadySpec:
    """Declarative ready-time description of a whole supply.

    ``kinds`` maps each *tracked* ancilla kind to its closed form; a kind
    absent from the mapping never constrains (``acquire`` returns
    ``earliest`` unchanged). An empty mapping is the infinite supply.
    """

    kinds: Mapping[str, KindSpec] = field(default_factory=dict)

    def kind(self, kind: str) -> Optional[KindSpec]:
        """The closed form for ``kind``, or None if unconstrained."""
        return self.kinds.get(kind)


class AncillaSupply(Protocol):
    """What the dataflow engines require of a supply.

    ``ready_spec()`` returns the supply's :class:`ReadySpec`; every kind
    in it is a :class:`SteadyKindSpec` or a :class:`DedicatedKindSpec`.
    After a run the engines commit the run's consumption back through
    ``advance(kind, total)`` for each steady kind and
    ``advance_per_qubit(kind, counts)`` for each dedicated kind, so a
    supply needs only the methods its spec's kinds call for. A supply
    without ``ready_spec()``, or with a kind of any other type, is
    rejected with :class:`TypeError` before anything runs.
    """

    def ready_spec(self) -> ReadySpec:
        """The closed-form ready-time description of this supply."""
        ...


class InfiniteSupply:
    """Ancillae always ready — the speed-of-data limit."""

    def acquire(self, kind: str, qubit: int, count: int, earliest: float) -> float:
        return earliest

    def ready_spec(self) -> ReadySpec:
        """No kind ever constrains: the empty declarative spec."""
        return ReadySpec({})


class _RateCounter:
    """Sequential consumption from a constant production rate.

    The k-th ancilla (1-based) exists at time k / rate; consumption is
    FIFO, so the ready time for a batch is when the last of the batch has
    been produced (or ``earliest``, whichever is later).
    """

    __slots__ = ("rate", "consumed")

    def __init__(self, rate_per_us: float) -> None:
        if rate_per_us < 0:
            raise ValueError(f"rate must be >= 0, got {rate_per_us}")
        self.rate = rate_per_us
        self.consumed = 0

    def acquire(self, count: int, earliest: float) -> float:
        if count <= 0:
            return earliest
        if self.rate == 0:
            return float("inf")
        self.consumed += count
        produced_by = self.consumed / self.rate
        return max(earliest, produced_by)


class SteadyRateSupply:
    """One global production rate per ancilla kind (Figure 8's model).

    Because consumption is FIFO from a constant rate, availability has a
    closed form: the k-th ancilla of a kind exists at ``k / rate``.
    :meth:`ready_spec` publishes the counters so the dataflow engines
    evaluate that closed form for a whole circuit at once; :meth:`advance`
    lets them commit the aggregate consumption afterwards so supply state
    stays identical to a gate-by-gate :meth:`acquire` walk.

    Args:
        rates_per_ms: Production rate per kind in ancillae per millisecond.
    """

    def __init__(self, rates_per_ms: Dict[str, float]) -> None:
        self._counters = {
            kind: _RateCounter(rate / 1000.0) for kind, rate in rates_per_ms.items()
        }

    def acquire(self, kind: str, qubit: int, count: int, earliest: float) -> float:
        counter = self._counters.get(kind)
        if counter is None:
            return earliest
        return counter.acquire(count, earliest)

    def advance(self, kind: str, count: int) -> None:
        """Record ``count`` ancillae as consumed without a time query.

        Mirrors :meth:`acquire`'s bookkeeping (a zero-rate counter never
        advances — acquire returns infinity before incrementing), so a
        closed-form run leaves the same observable state as a per-gate one.
        """
        counter = self._counters.get(kind)
        if counter is not None and counter.rate != 0 and count > 0:
            counter.consumed += count

    def ready_spec(self) -> ReadySpec:
        """One :class:`SteadyKindSpec` snapshot per tracked kind."""
        return ReadySpec(
            {
                kind: SteadyKindSpec(counter.rate, counter.consumed)
                for kind, counter in self._counters.items()
            }
        )


class PooledSupply(SteadyRateSupply):
    """Shared factories feeding all consumers — the Fully-Multiplexed model.

    Identical availability math to :class:`SteadyRateSupply`; the separate
    name documents intent at call sites (rates here derive from a factory
    area budget rather than a swept parameter).
    """


class DedicatedSupply:
    """A private generator per data qubit — the QLA model (Figure 14a).

    Each qubit's ancillae come only from its own generator, so generators
    of idle qubits cannot help busy ones: the imbalance the paper blames
    for QLA's two-orders-of-magnitude area overhead.

    Per-qubit state lives in flat parallel lists (rates, consumed counts)
    rather than counter objects, so the dataflow engines' shared lowering
    lifts them wholesale into ``(qubits, points)`` matrices without any
    per-counter attribute traffic.

    Args:
        rates_per_ms: *Per-qubit* production rate per kind.
        num_qubits: Number of data qubits (each gets its own counters).
    """

    def __init__(self, rates_per_ms: Dict[str, float], num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self._rates: Dict[str, List[float]] = {}
        self._consumed: Dict[str, List[int]] = {}
        for kind, rate in rates_per_ms.items():
            rate_per_us = rate / 1000.0
            if rate_per_us < 0:
                raise ValueError(f"rate must be >= 0, got {rate_per_us}")
            self._rates[kind] = [rate_per_us] * num_qubits
            self._consumed[kind] = [0] * num_qubits

    def acquire(self, kind: str, qubit: int, count: int, earliest: float) -> float:
        # Same arithmetic and ordering as _RateCounter.acquire.
        rates = self._rates.get(kind)
        if rates is None or count <= 0:
            return earliest
        rate = rates[qubit]
        if rate == 0:
            return float("inf")
        consumed = self._consumed[kind]
        consumed[qubit] += count
        produced_by = consumed[qubit] / rate
        return max(earliest, produced_by)

    def ready_spec(self) -> ReadySpec:
        """One :class:`DedicatedKindSpec` per tracked kind (live lists)."""
        return ReadySpec(
            {
                kind: DedicatedKindSpec(rates, self._consumed[kind])
                for kind, rates in self._rates.items()
            }
        )

    def advance_per_qubit(self, kind: str, counts: List[int]) -> None:
        """Record per-qubit consumption without time queries.

        ``counts[q]`` ancillae of ``kind`` are charged to qubit ``q``'s
        generator, mirroring :meth:`acquire`'s bookkeeping (zero-rate
        generators never advance), so a batched run leaves the same
        observable state as a gate-by-gate one.
        """
        rates = self._rates.get(kind)
        if rates is None:
            return
        consumed = self._consumed[kind]
        if any(consumed) or 0.0 in rates:
            consumed[:] = [
                c if (n == 0 or r == 0.0) else c + n
                for c, r, n in zip(consumed, rates, counts)
            ]
        else:
            # Fresh generators that all produce (a sweep's usual case):
            # the counts are the new totals.
            consumed[:] = counts
