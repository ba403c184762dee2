"""Replica-set serving: client-side failover across an exploration fleet.

A :class:`ReplicaSet` takes an ordered list of server URLs and routes every ``/evaluate`` through three layers of
defense, so a request only fails when the whole fleet does:

* **Per-replica circuit breakers** (:class:`CircuitBreaker`). Each
  replica's health is tracked from the failures its own transport
  reports: ``failure_threshold`` consecutive failed requests flip the
  breaker *closed → open* and traffic stops flowing to that replica.
  After ``cooldown`` seconds the breaker turns *half-open* and admits
  exactly one probe — a real request, or a ``/readyz`` probe via
  :meth:`ReplicaSet.try_recover` — whose outcome closes or re-opens it.
  Breaker state is exported per replica as the
  ``repro_pool_breaker_state`` gauge (0 closed, 1 half-open, 2 open)
  with ``repro_pool_breaker_opens_total`` / ``repro_pool_probes_total``
  counters alongside.

* **Failover.** A refused/hung/torn/5xx request (anything the
  single-server :class:`~repro.serve.client.Client` classifies as
  :class:`~repro.serve.client.ServerUnavailable`) moves to the next
  healthy replica with the *remaining* deadline propagated — the fleet
  shares one wall-clock budget, replicas don't each get a fresh one.
  Terminal 4xx responses (:class:`~repro.serve.client.RequestError`)
  never fail over: a malformed request is the caller's bug on every
  replica. Only when no replica can take the request does
  :class:`AllReplicasUnavailable` escape — the "fleet died" rung of the
  degrade ladder that :class:`~repro.serve.client.RemoteEvaluator`
  answers with bit-identical local evaluation.

* **Hedged requests** (optional). With ``hedge_after`` set, a replica
  that hasn't answered within that many seconds is raced against the
  next healthy replica and the first response wins. Duplicated work is
  safe by construction: the replicas share one content-addressed store
  and the lease protocol arbitrates concurrent simulation of the same
  point, so a hedge can waste at most one cache read.

The set is intentionally client-side only: servers never know they are
replicas. N ``repro serve`` processes pointed at one ``--cache-dir``
*are* the fleet, exactly as the ROADMAP's "many evaluators, one store"
story promised.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.explore.evaluator import Evaluation
from repro.obs import metrics as _metrics
from repro.serve.client import (
    Client,
    RequestError,
    ServeError,
    ServerUnavailable,
)
from repro.util.backoff import Backoff

#: Breaker states, in escalation order.
CLOSED = "closed"
HALF_OPEN = "half-open"
OPEN = "open"

_STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class AllReplicasUnavailable(ServerUnavailable):
    """Every replica's breaker is open or every attempt failed.

    A subclass of :class:`ServerUnavailable`, so single-server callers
    (``RemoteEvaluator``, the CLI) handle fleet death exactly like
    server death: degrade to local evaluation.
    """


class CircuitBreaker:
    """Per-replica circuit breaker: closed → open → half-open probe.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures open the breaker (any success resets the streak).
    * **open** — requests are refused locally for ``cooldown`` seconds.
    * **half-open** — after the cooldown one request (the probe) is
      admitted; its success closes the breaker, its failure re-opens it
      and restarts the cooldown.

    Thread-safe; the transition open → half-open happens lazily on
    observation, against an injectable monotonic ``clock`` so tests can
    step time instead of sleeping.

    When ``name`` is given (the replica's URL), transitions are mirrored
    into the metrics registry: the ``repro_pool_breaker_state`` gauge
    and the ``repro_pool_breaker_opens_total`` counter, both labeled
    ``replica=<name>``.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        name: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._opens = 0
        self._export()

    # -- state ----------------------------------------------------------

    def _export(self) -> None:
        if self.name is None:
            return
        _metrics.gauge(
            "repro_pool_breaker_state",
            help="replica breaker state (0 closed, 1 half-open, 2 open)",
            replica=self.name,
        ).set(_STATE_VALUES[self._state])

    def _tick(self) -> None:
        """Lazy open → half-open transition (caller holds the lock)."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = HALF_OPEN
            self._probing = False
            self._export()

    @property
    def state(self) -> str:
        with self._lock:
            self._tick()
            return self._state

    @property
    def opens(self) -> int:
        """Times this breaker has opened (including probe re-opens)."""
        return self._opens

    def allow(self) -> bool:
        """May one request be sent now? Half-open admits a single probe."""
        with self._lock:
            self._tick()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            self._probing = False
            self._export()

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            if self._state == OPEN:
                # A straggler (e.g. a losing hedge) reporting after the
                # breaker already opened adds no information.
                return
            self._failures += 1
            self._probing = False
            if self._state == HALF_OPEN or self._failures >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = self._clock()
                self._opens += 1
                if self.name is not None:
                    _metrics.counter(
                        "repro_pool_breaker_opens_total",
                        help="replica breaker open transitions",
                        replica=self.name,
                    ).inc()
                self._export()


class _Replica:
    __slots__ = ("client", "name", "breaker")

    def __init__(self, client: Client, breaker: CircuitBreaker) -> None:
        self.client = client
        self.name = client.base_url
        self.breaker = breaker


class ReplicaSet:
    """Failover client over an ordered list of exploration servers.

    Drop-in for :class:`~repro.serve.client.Client` wherever a
    ``RemoteEvaluator`` needs a transport: it exposes the same
    :meth:`evaluate` signature and raises the same exception taxonomy,
    plus :meth:`try_recover` so a degraded evaluator can return to
    served evaluation once a replica probe succeeds.

    Args:
        servers: URLs (or prebuilt :class:`Client` instances), in
            preference order. The first healthy replica serves.
        timeout/retries/backoff/rng: Per-replica transport knobs (see
            :class:`Client`); ``retries`` defaults low (1) because
            failover, not in-place retry, is this layer's answer to a
            sick replica.
        deadline: Wall-clock budget per request covering *every* replica
            tried, propagated as the remaining budget on each hop.
        failure_threshold/cooldown: Breaker tuning (see
            :class:`CircuitBreaker`).
        hedge_after: Seconds a replica may stay silent before the next
            healthy replica is raced against it (``None`` disables
            hedging).
        probe_timeout: Socket timeout of ``/readyz`` health probes.
        clock: Injectable monotonic clock shared with the breakers.
    """

    def __init__(
        self,
        servers: Sequence[Union[str, Client]],
        *,
        timeout: float = 30.0,
        retries: int = 1,
        deadline: Optional[float] = None,
        backoff: Optional[Backoff] = None,
        rng=None,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        hedge_after: Optional[float] = None,
        probe_timeout: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not servers:
            raise ValueError("ReplicaSet needs at least one server URL")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if hedge_after is not None and hedge_after <= 0:
            raise ValueError(f"hedge_after must be positive, got {hedge_after}")
        if probe_timeout <= 0:
            raise ValueError(f"probe_timeout must be positive, got {probe_timeout}")
        clients = [
            server if isinstance(server, Client) else Client(
                server,
                timeout=timeout,
                retries=retries,
                backoff=backoff if backoff is not None else Backoff(base=0.05, cap=1.0),
                rng=rng,
            )
            for server in servers
        ]
        seen = set()
        for client in clients:
            if client.base_url in seen:
                raise ValueError(
                    f"duplicate replica {client.base_url!r}; each replica "
                    "must be a distinct server"
                )
            seen.add(client.base_url)
        self.deadline = deadline
        self.hedge_after = hedge_after
        self.probe_timeout = probe_timeout
        self._clock = clock
        self._replicas = [
            _Replica(
                client,
                CircuitBreaker(
                    failure_threshold=failure_threshold,
                    cooldown=cooldown,
                    name=client.base_url,
                    clock=clock,
                ),
            )
            for client in clients
        ]

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._replicas)

    @property
    def names(self) -> List[str]:
        return [replica.name for replica in self._replicas]

    def states(self) -> Dict[str, str]:
        """Current breaker state per replica URL."""
        return {replica.name: replica.breaker.state for replica in self._replicas}

    def breaker(self, name: str) -> CircuitBreaker:
        for replica in self._replicas:
            if replica.name == name:
                return replica.breaker
        raise KeyError(name)

    # -- API ------------------------------------------------------------

    def evaluate(
        self,
        kernel: str,
        width: int,
        points: Sequence[Dict[str, object]],
        deadline: Optional[float] = None,
    ) -> Tuple[List[Evaluation], Dict[str, int]]:
        """Evaluate ``points`` on the first replica that answers.

        Walks replicas healthiest-first (closed breakers in configured
        order, then half-open probes), failing over on any retryable
        failure with the remaining deadline propagated. Raises
        :class:`AllReplicasUnavailable` when the fleet is down and
        :class:`~repro.serve.client.RequestError` immediately on a
        terminal 4xx.
        """
        budget = deadline if deadline is not None else self.deadline
        cutoff = None if budget is None else self._clock() + budget

        def call(replica: _Replica, remaining: Optional[float]):
            return replica.client.evaluate(
                kernel, width, points, deadline=remaining
            )

        return self._route(call, cutoff)

    def try_recover(self) -> bool:
        """True when some replica can take traffic again.

        Immediately true while any breaker is closed. Otherwise each
        half-open breaker (cooldown elapsed) gets one ``/readyz`` probe:
        the first success closes that breaker and returns True; failures
        re-open theirs. While every breaker is open and cooling down,
        returns False without any network traffic — this is what makes
        polling it every batch cheap for a degraded evaluator.
        """
        for replica in self._replicas:
            if replica.breaker.state == CLOSED:
                return True
        for replica in self._replicas:
            if replica.breaker.state == HALF_OPEN and replica.breaker.allow():
                if self._probe(replica):
                    return True
        return False

    # -- routing --------------------------------------------------------

    def _ordered(self) -> List[_Replica]:
        """Replicas healthiest-first: closed breakers keep config order,
        half-open (probe candidates) follow, open ones are skipped by
        ``allow()`` anyway."""
        ranked = sorted(
            range(len(self._replicas)),
            key=lambda i: (
                0 if self._replicas[i].breaker.state == CLOSED else 1,
                i,
            ),
        )
        return [self._replicas[i] for i in ranked]

    def _route(self, call, cutoff: Optional[float]):
        last: Optional[ServeError] = None
        used: set = set()
        first_attempt = True
        for replica in self._ordered():
            if replica.name in used:
                continue
            if not replica.breaker.allow():
                continue
            if cutoff is not None and cutoff - self._clock() <= 0:
                raise AllReplicasUnavailable(
                    f"deadline exhausted before the fleet answered; "
                    f"last failure: {last}"
                ) from last
            if not first_attempt:
                _metrics.counter(
                    "repro_pool_failovers_total",
                    help="requests moved to another replica after a failure",
                ).inc()
            first_attempt = False
            hedge = (
                self._hedge_candidate(replica, used)
                if self.hedge_after is not None
                else None
            )
            try:
                if hedge is None:
                    return self._single(replica, call, cutoff)
                return self._hedged(replica, hedge, call, cutoff, used)
            except RequestError:
                raise  # terminal everywhere: the request itself is bad
            except ServeError as exc:
                last = exc
                used.add(replica.name)
                continue
        states = ", ".join(f"{n}={s}" for n, s in self.states().items())
        raise AllReplicasUnavailable(
            f"no replica available ({states}); last failure: {last}"
        ) from last

    def _single(self, replica: _Replica, call, cutoff: Optional[float]):
        remaining: Optional[float] = None
        if cutoff is not None:
            remaining = cutoff - self._clock()
            if remaining <= 0:
                raise AllReplicasUnavailable("deadline exhausted")
        try:
            value = call(replica, remaining)
        except RequestError:
            # The replica answered; the request is the problem.
            replica.breaker.record_success()
            raise
        except ServeError:
            replica.breaker.record_failure()
            raise
        replica.breaker.record_success()
        return value

    def _hedge_candidate(
        self, primary: _Replica, used: set
    ) -> Optional[_Replica]:
        for replica in self._replicas:
            if replica is primary or replica.name in used:
                continue
            if replica.breaker.state == CLOSED:
                return replica
        return None

    def _hedged(
        self, primary: _Replica, hedge: _Replica, call,
        cutoff: Optional[float], used: set,
    ):
        """Race ``primary`` against ``hedge`` after ``hedge_after`` of
        silence; first success wins. Both replicas share one store, so
        the lease protocol arbitrates any duplicated simulation."""
        results: "queue.Queue[Tuple[_Replica, object, Optional[BaseException]]]" = (
            queue.Queue()
        )

        def run(replica: _Replica) -> None:
            try:
                results.put((replica, self._single(replica, call, cutoff), None))
            except BaseException as exc:  # noqa: BLE001 — relayed below
                results.put((replica, None, exc))

        threading.Thread(
            target=run, args=(primary,), daemon=True,
            name=f"repro-hedge-{primary.name}",
        ).start()
        pending = 1
        hedged = False
        failures: List[Tuple[_Replica, BaseException]] = []
        while pending:
            timeout = None if hedged else self.hedge_after
            try:
                replica, value, exc = results.get(timeout=timeout)
            except queue.Empty:
                # Primary is slow: launch the hedge (once) and keep
                # waiting for whichever answers first.
                hedged = True
                if hedge.breaker.allow():
                    _metrics.counter(
                        "repro_pool_hedges_total",
                        help="hedged (raced) requests launched",
                    ).inc()
                    threading.Thread(
                        target=run, args=(hedge,), daemon=True,
                        name=f"repro-hedge-{hedge.name}",
                    ).start()
                    pending += 1
                continue
            pending -= 1
            if exc is None:
                if replica is hedge:
                    _metrics.counter(
                        "repro_pool_hedge_wins_total",
                        help="hedged requests won by the hedge replica",
                    ).inc()
                return value
            if isinstance(exc, RequestError):
                raise exc
            if isinstance(exc, ServeError):
                failures.append((replica, exc))
                continue
            raise exc
        for replica, _ in failures:
            used.add(replica.name)
        raise failures[-1][1]

    # -- probing --------------------------------------------------------

    def _probe(self, replica: _Replica) -> bool:
        ok = replica.client.probe(timeout=self.probe_timeout)
        _metrics.counter(
            "repro_pool_probes_total",
            help="half-open breaker probes by replica and outcome",
            replica=replica.name,
            outcome="success" if ok else "failure",
        ).inc()
        if ok:
            replica.breaker.record_success()
        else:
            replica.breaker.record_failure()
        return ok
