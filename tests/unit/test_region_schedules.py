"""Unit tests for repro.layout.region and repro.layout.schedules."""

import pytest

from repro.layout.region import data_qubit_area
from repro.layout.schedules import (
    PI8_FACTORY_SCHEDULES,
    SIMPLE_FACTORY_SCHEDULE,
    ZERO_FACTORY_SCHEDULES,
    OpSchedule,
)
from repro.tech import ION_TRAP


class TestDataRegion:
    def test_area_formula(self):
        # Section 4.2: m x nq.
        assert data_qubit_area(97) == 679
        assert data_qubit_area(123) == 861
        assert data_qubit_area(32) == 224

    def test_area_rejects_negative(self):
        with pytest.raises(ValueError):
            data_qubit_area(-1)


class TestOpSchedule:
    def test_latency_pricing(self):
        sched = OpSchedule("x", preps=1, two_qubit=2, turns=1)
        assert sched.latency(ION_TRAP) == 51 + 20 + 10

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            OpSchedule("x", moves=-1)

    def test_symbolic_rendering(self):
        sched = OpSchedule("x", two_qubit=3, turns=6, moves=5)
        assert sched.symbolic() == "3xt2q + 6xtturn + 5xtmove"

    def test_symbolic_singular(self):
        assert OpSchedule("x", preps=1).symbolic() == "tprep"

    def test_symbolic_empty(self):
        assert OpSchedule("x").symbolic() == "0"

    def test_scaling_with_technology(self):
        sched = OpSchedule("x", measurements=2)
        assert sched.latency(ION_TRAP.scaled(2.0)) == 200.0


class TestPaperSchedules:
    def test_simple_factory_latency_is_323us(self):
        assert SIMPLE_FACTORY_SCHEDULE.latency(ION_TRAP) == 323.0

    def test_table5_latencies(self):
        expected = {
            "zero_prep": 73.0,
            "cx_stage": 95.0,
            "cat_prep": 62.0,
            "verification": 82.0,
            "bp_correction": 138.0,
        }
        for name, value in expected.items():
            assert ZERO_FACTORY_SCHEDULES[name].latency(ION_TRAP) == value

    def test_table7_latencies(self):
        expected = {
            "cat_state_prepare": 218.0,
            "transversal_interact": 53.0,
            "decode_store": 218.0,
            "h_measure_correct": 74.0,
        }
        for name, value in expected.items():
            assert PI8_FACTORY_SCHEDULES[name].latency(ION_TRAP) == value

    def test_symbolic_forms_match_paper(self):
        assert (
            ZERO_FACTORY_SCHEDULES["cx_stage"].symbolic()
            == "3xt2q + 6xtturn + 5xtmove"
        )
        assert (
            SIMPLE_FACTORY_SCHEDULE.symbolic()
            == "tprep + 2xtmeas + 6xt2q + 2xt1q + 8xtturn + 30xtmove"
        )
