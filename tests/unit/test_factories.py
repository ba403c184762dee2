"""Unit tests for the factory models (Figure 11, Tables 6 and 8)."""

import pytest

from repro.factory import Pi8Factory, PipelinedZeroFactory, SimpleZeroFactory
from repro.testing.floorplan import simple_factory_grid
from repro.tech import ION_TRAP


class TestSimpleFactory:
    factory = SimpleZeroFactory()

    def test_latency_323us(self):
        assert self.factory.latency_us == 323.0

    def test_throughput_3_1_per_ms(self):
        assert self.factory.throughput_per_ms == pytest.approx(3.1, abs=0.05)

    def test_area_90_macroblocks(self):
        assert self.factory.area == 90

    def test_grid_connected(self):
        simple_factory_grid().validate_connected()

    def test_grid_area_is_the_priced_area(self):
        assert simple_factory_grid().area == self.factory.area

    def test_grid_has_30_gate_locations(self):
        # Three rows of ten (seven encode + three verify qubits each).
        assert len(simple_factory_grid().gate_locations) == 30

    def test_replication_area(self):
        # 10 anc/ms needs ceil(10/3.1) = 4 copies = 360 macroblocks.
        assert self.factory.replicated_area_for_bandwidth(10.0) == 360

    def test_replication_rejects_negative(self):
        with pytest.raises(ValueError):
            self.factory.replicated_area_for_bandwidth(-1.0)

    def test_faster_technology_raises_throughput(self):
        fast = SimpleZeroFactory(tech=ION_TRAP.scaled(0.5))
        assert fast.throughput_per_ms == pytest.approx(
            2 * self.factory.throughput_per_ms
        )


class TestPipelinedZeroFactory:
    factory = PipelinedZeroFactory()

    def test_table6_unit_counts(self):
        assert self.factory.unit_counts == {
            "zero_prep": 24,
            "cx_stage": 1,
            "cat_prep": 1,
            "verification": 3,
            "bp_correction": 2,
        }

    def test_functional_area_130(self):
        assert self.factory.functional_area == 130

    def test_crossbar_areas(self):
        assert self.factory.crossbar_areas == [24, 60, 84]
        assert self.factory.crossbar_area == 168

    def test_total_area_298(self):
        assert self.factory.area == 298

    def test_throughput_10_5(self):
        assert self.factory.throughput_per_ms == pytest.approx(10.5, abs=0.05)

    def test_pipelining_buys_no_density(self):
        """Section 5.3: virtually the same bandwidth per unit area as the
        simple factory — the win is port concentration, not density."""
        simple = SimpleZeroFactory()
        ratio = self.factory.bandwidth_per_area / simple.bandwidth_per_area
        assert 0.8 < ratio < 1.25

    def test_area_for_bandwidth_linear(self):
        area = self.factory.area_for_bandwidth(self.factory.throughput_per_ms)
        assert area == pytest.approx(self.factory.area)

    def test_scaling_cx_units_scales_throughput(self):
        double = PipelinedZeroFactory(cx_units=2)
        assert double.throughput_per_ms == pytest.approx(
            2 * self.factory.throughput_per_ms
        )

    def test_invalid_cx_units(self):
        with pytest.raises(ValueError):
            PipelinedZeroFactory(cx_units=0)

    def test_serial_latency_includes_all_stages(self):
        # 73 + 95 + 82 + 138 = 388us through the four stages.
        assert self.factory.serial_latency_us() == 388.0


class TestPi8Factory:
    factory = Pi8Factory()

    def test_table8_unit_counts(self):
        assert self.factory.unit_counts == {
            "cat_state_prepare": 4,
            "transversal_interact": 1,
            "decode_store": 4,
            "h_measure_correct": 2,
        }

    def test_functional_area_147(self):
        assert self.factory.functional_area == 147

    def test_crossbar_areas(self):
        assert self.factory.crossbar_areas == [48, 104, 104]
        assert self.factory.crossbar_area == 256

    def test_total_area_403(self):
        assert self.factory.area == 403

    def test_throughput_18_3(self):
        assert self.factory.throughput_per_ms == pytest.approx(18.3, abs=0.05)

    def test_zero_demand_matches_output(self):
        assert self.factory.zero_ancilla_demand_per_ms == pytest.approx(
            self.factory.throughput_per_ms
        )

    def test_serial_latency_563us(self):
        assert self.factory.serial_latency_us() == 563.0

    def test_invalid_cat_units(self):
        with pytest.raises(ValueError):
            Pi8Factory(cat_units=0)

    def test_cat_stage_is_bottleneck(self):
        """Every non-driver stage must have capacity for the cat flow."""
        cat_flow = 2 * self.factory.stages["cat_state_prepare"].capacity_out(ION_TRAP)
        for name in ("transversal_interact", "decode_store"):
            capacity = self.factory.stages[name].capacity_in(ION_TRAP)
            assert capacity >= cat_flow * 0.97
