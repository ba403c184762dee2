"""Sweep-level reuse and parallel-execution tests.

Simulation is deterministic, so ``workers=N`` must reproduce the serial
sweep exactly (same points, same order, same floats), and the reference
loop (:mod:`repro.testing.reference`) must agree with the production
engines at the sweep level too.
"""

import pytest

from repro.arch import ArchitectureKind
from repro.arch.sweep import area_sweep, throughput_sweep
from repro.circuits.compiled import compile_circuit
from repro.testing.reference import evaluate_reference

AREAS = (100.0, 400.0, 1600.0)
RATES = (5.0, 50.0, 500.0, 5000.0)


class TestThroughputSweep:
    def test_workers_identical_to_serial(self, qrca8):
        serial = throughput_sweep(qrca8, RATES)
        parallel = throughput_sweep(qrca8, RATES, workers=2)
        assert parallel == serial

    def test_legacy_engine_identical(self, qrca8):
        ratio = qrca8.pi8_bandwidth_per_ms / qrca8.zero_bandwidth_per_ms
        reference = evaluate_reference(
            qrca8, [{"zero_rate": r, "pi8_ratio": ratio} for r in RATES]
        )
        sweep = throughput_sweep(qrca8, RATES)
        assert [p.result for p in sweep] == [e.result for e in reference]

    def test_prebuilt_compiled_circuit_accepted(self, qrca8):
        compiled = compile_circuit(qrca8.circuit, qrca8.tech)
        assert throughput_sweep(qrca8, RATES, compiled=compiled) == (
            throughput_sweep(qrca8, RATES)
        )

    def test_unknown_engine_rejected(self, qrca8):
        """There is one engine: sweeps take no engine option at all."""
        with pytest.raises(TypeError, match="engine"):
            throughput_sweep(qrca8, RATES, engine="legacy")


class TestAreaSweep:
    def test_workers_identical_to_serial(self, qcla8):
        serial = area_sweep(qcla8, areas=AREAS)
        parallel = area_sweep(qcla8, areas=AREAS, workers=3)
        assert parallel == serial

    def test_workers_exceeding_points_identical(self, qrca8):
        areas = AREAS[:1]
        kinds = (ArchitectureKind.QLA,)
        serial = area_sweep(qrca8, areas=areas, kinds=kinds)
        parallel = area_sweep(qrca8, areas=areas, kinds=kinds, workers=8)
        assert parallel == serial

    def test_legacy_engine_identical(self, qcla8):
        curves = area_sweep(qcla8, areas=AREAS)
        reference = evaluate_reference(
            qcla8,
            [
                {"arch": kind.value, "factory_area": area}
                for kind in curves
                for area in AREAS
            ],
        )
        results = [p.result for curve in curves.values() for p in curve]
        assert results == [e.result for e in reference]

    def test_prebuilt_compiled_circuit_accepted(self, qcla8):
        compiled = qcla8.compiled_circuit()
        assert area_sweep(qcla8, areas=AREAS, compiled=compiled) == (
            area_sweep(qcla8, areas=AREAS)
        )

    def test_curve_structure_preserved(self, qrca8):
        curves = area_sweep(qrca8, areas=AREAS, workers=2)
        assert set(curves) == set(ArchitectureKind)
        for points in curves.values():
            assert [p.x for p in points] == list(AREAS)
