"""Measure the traffic mix the ``serve`` workload's requests reproduce.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/traffic_mix.py [SEED ...]

Two clients each run the ``explore`` workload's nine explorations
(``ExploreWorkload`` plans from seeds ``2*SEED`` and ``2*SEED + 1``)
against one server, as ``repro explore`` does through
``RemoteEvaluator``: every batch the engine hands its evaluator becomes
one ``/evaluate`` request. The batches are recorded with a local
``Evaluator`` — ``RemoteEvaluator.evaluate`` forwards the same points
and gets bit-identical evaluations, so the strategies ask the same
things — then replayed in lockstep (request ``i`` of both clients in
flight together, against one shared store), and every point of every
request is classified:

* ``hit``: already in the store when the request arrives;
* ``shared``: also in the peer's concurrent request (one client
  simulates it, the other coalesces onto its flight);
* ``miss``: neither — simulated for this request alone.

Prints the request sizes, the shares of all points, and the split of a
``POINTS_PER_REQUEST``-point request that ``workloads.split`` derives
from them. ``workloads.MEASURED_SHARES`` holds the result.
"""

import collections
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    POINTS_PER_REQUEST,
    WIDTH,
    ExploreWorkload,
    explorations,
    split,
)


def record(seed: int, directory: Path):
    """The ``(kernel, canonical keys)`` of every batch one client sends."""
    from repro.explore import AdcrObjective, Evaluator, ResultStore, explore

    batches = []

    class Recording(Evaluator):
        def evaluate(self, points):
            batches.append((
                self._kernel,
                [self.canonical_key(p) for p in points],
                len({p["arch"] for p in points}),
            ))
            return super().evaluate(points)

    store = ResultStore(directory)
    plan = ExploreWorkload(seed, directory).plan
    for kernel, space, _, strategy, budget in explorations(plan):
        explore(
            space, AdcrObjective(), strategy,
            evaluator=Recording(kernel=kernel, width=WIDTH, store=store),
            budget=budget,
        )
    return batches


def classify(clients):
    """Point counts per class for the clients' batches replayed in lockstep."""
    stored = set()
    counts = collections.Counter()
    for step in range(max(len(batches) for batches in clients)):
        sent = [
            {(kernel, key) for key in keys}
            for kernel, keys, _ in (b[step] for b in clients if step < len(b))
        ]
        for index, points in enumerate(sent):
            peers = set().union(*(s for i, s in enumerate(sent) if i != index))
            for point in points:
                if point in stored:
                    counts["hit"] += 1
                elif point in peers:
                    counts["shared"] += 1
                else:
                    counts["miss"] += 1
        stored.update(*sent)
    return counts


def main() -> int:
    seeds = [int(arg) for arg in sys.argv[1:]] or [0]
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            clients = [record(2 * seed + c, Path(tmp) / str(c)) for c in (0, 1)]
        requests = [batch for b in clients for batch in b]
        sizes = collections.Counter(len(keys) for _, keys, _ in requests)
        archs = collections.Counter(
            n for _, keys, n in requests if len(keys) == POINTS_PER_REQUEST
        )
        counts = classify(clients)
        total = sum(counts.values())
        shares = {name: counts[name] / total for name in ("hit", "shared", "miss")}
        print(f"seed {seed}: {len(requests)} requests, sizes {sorted(sizes.items())}")
        print(f"  architectures per {POINTS_PER_REQUEST}-point request {sorted(archs.items())}")
        print("  shares " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        print(f"  split of {POINTS_PER_REQUEST} points {split(shares, POINTS_PER_REQUEST)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
