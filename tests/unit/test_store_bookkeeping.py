"""Per-miss store bookkeeping on a cold store.

A cold miss builds its store key and digest once and shares them between
its get, claim, heartbeats, put and release; the tech fingerprint is
built and encoded once per evaluator; store records are published
without ``fsync`` while the exploration journal keeps one ``fsync`` per
line.
"""

import importlib
import json
import os

import pytest

from repro.explore import (
    AdcrObjective,
    Evaluator,
    RandomStrategy,
    ResultStore,
    architecture_space,
    explore,
)

store_module = importlib.import_module("repro.explore.store")
evaluator_module = importlib.import_module("repro.explore.evaluator")

POINTS = [
    {"arch": "qla", "factory_area": area} for area in (40.0, 80.0, 120.0)
] + [
    {"arch": "cqla", "factory_area": 400.0},
    {"arch": "multiplexed", "factory_area": 200.0},
]


@pytest.fixture
def calls(monkeypatch):
    """Counts of key digests, tech fingerprints and fsyncs."""
    counts = {"text_digest": 0, "tech_fingerprint": 0, "fsync": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # The evaluator hashes its keys; the store would re-hash a key dict.
    count(evaluator_module, "text_digest")
    count(store_module, "text_digest")
    count(evaluator_module, "tech_fingerprint")
    count(os, "fsync")
    return counts


class TestColdMissBookkeeping:
    def test_one_digest_per_unique_miss(self, tmp_path, calls):
        store = ResultStore(tmp_path)
        evaluator = Evaluator(kernel="qrca", width=8, store=store)
        batch = POINTS + [dict(POINTS[0]), dict(POINTS[3])]  # two repeats
        evaluations = evaluator.evaluate(batch)
        assert all(e.ok for e in evaluations)
        assert evaluator.simulations_run == len(POINTS)
        assert evaluator.dedup_hits == 2
        assert calls["text_digest"] == len(POINTS)
        assert len(store) == len(POINTS)

    def test_tech_fingerprint_once_per_evaluator(self, tmp_path, calls):
        store = ResultStore(tmp_path)
        first = Evaluator(kernel="qrca", width=8, store=store)
        first.evaluate(POINTS[:2])
        first.evaluate(POINTS[2:])
        assert calls["tech_fingerprint"] == 1
        warm = Evaluator(kernel="qrca", width=8, store=store)
        warm.evaluate(POINTS)
        assert warm.cache_hits == len(POINTS)
        assert calls["tech_fingerprint"] == 2

    def test_warm_batch_encodes_tech_fingerprint_once(
        self, tmp_path, monkeypatch
    ):
        """A warm batch's keys reuse the evaluator's encoded key base: the
        tech record is encoded once, not once per point."""
        points = [
            {"arch": arch, "factory_area": 40.0 * (1 + i)}
            for arch in ("qla", "cqla", "multiplexed")
            for i in range(17)
        ][:50]
        store = ResultStore(tmp_path)
        Evaluator(kernel="qrca", width=8, store=store).evaluate(points)
        encodings = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            text = dumps(*args, **kwargs)
            if '"t_1q"' in text:  # a tech fingerprint field
                encodings.append(text)
            return text

        monkeypatch.setattr(json, "dumps", counted)
        warm = Evaluator(kernel="qrca", width=8, store=store)
        evaluations = warm.evaluate(points)
        assert warm.cache_hits == len(points) == 50
        assert all(e.ok and e.from_cache for e in evaluations)
        assert len(encodings) == 1

    def test_put_never_fsyncs(self, tmp_path, calls):
        store = ResultStore(tmp_path)
        Evaluator(kernel="qrca", width=8, store=store).evaluate(POINTS)
        assert store.put({"point": "direct"}, {"tag": 1})
        assert calls["fsync"] == 0
        # Still published atomically: no temp file and no lease survives.
        names = sorted(path.name for path in store.directory.iterdir())
        assert len(names) == len(POINTS) + 1
        assert all(name.endswith(".json") for name in names)

    def test_journaled_explore_fsyncs_once_per_round(
        self, tmp_path, qrca8, calls
    ):
        store = ResultStore(tmp_path)
        journal = store.journal_path()
        space = architecture_space(qrca8)
        result = explore(
            space,
            AdcrObjective(),
            RandomStrategy(space, seed=3, batch_size=2),
            evaluator=Evaluator(kernel="qrca", width=8, store=store),
            budget=6,
            journal=journal,
        )
        assert result.evaluated == 6
        entries = [json.loads(line) for line in journal.read_text().splitlines()]
        rounds = [e for e in entries if e["type"] == "round"]
        assert len(rounds) >= 3
        # One fsync for the header, one per round, none per record.
        assert calls["fsync"] == 1 + len(rounds)
