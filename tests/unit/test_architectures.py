"""Unit tests for repro.arch.architectures."""

import pytest

from repro.arch.architectures import (
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
    ballistic_hop_latency,
    factory_exchange_rates,
    split_area,
    teleport_latency,
)
from repro.arch.supply import PI8, ZERO, DedicatedSupply, PooledSupply
from repro.tech import ION_TRAP


class TestLatencyHelpers:
    def test_teleport_cost(self):
        # CX + measure + correct + channel entry/exit: 10+50+1+20+2 = 83.
        assert teleport_latency(ION_TRAP) == 83.0

    def test_ballistic_cheaper_than_teleport(self):
        assert ballistic_hop_latency(ION_TRAP) < teleport_latency(ION_TRAP)

    def test_ballistic_scales_with_span(self):
        assert ballistic_hop_latency(ION_TRAP, 16) > ballistic_hop_latency(ION_TRAP, 4)


class TestExchangeRates:
    def test_zero_cost_is_area_over_throughput(self):
        zero_cost, pi8_cost = factory_exchange_rates()
        assert zero_cost == pytest.approx(298 / 10.506, rel=0.01)

    def test_pi8_includes_zero_supply(self):
        zero_cost, pi8_cost = factory_exchange_rates()
        assert pi8_cost > 403 / 18.35  # conversion alone is not enough


class TestSplitArea:
    def test_rates_proportional_to_demand(self):
        rates = split_area(10000.0, zero_demand_per_ms=100.0, pi8_demand_per_ms=20.0)
        assert rates[ZERO] / rates[PI8] == pytest.approx(5.0)

    def test_scale_linearity(self):
        small = split_area(1000.0, 50.0, 10.0)
        large = split_area(2000.0, 50.0, 10.0)
        assert large[ZERO] == pytest.approx(2 * small[ZERO])

    def test_matched_area_reproduces_demand(self):
        zero_cost, pi8_cost = factory_exchange_rates()
        demand_area = 50.0 * zero_cost + 10.0 * pi8_cost
        rates = split_area(demand_area, 50.0, 10.0)
        assert rates[ZERO] == pytest.approx(50.0)
        assert rates[PI8] == pytest.approx(10.0)

    def test_zero_demand_zero_rates(self):
        rates = split_area(1000.0, 0.0, 0.0)
        assert rates == {ZERO: 0.0, PI8: 0.0}

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError):
            split_area(-1.0, 1.0, 1.0)


class TestConfigs:
    def test_qla_builds_dedicated_supply(self):
        supply = QlaConfig().build_supply(1000.0, 10, 50.0, 10.0, ION_TRAP)
        assert isinstance(supply, DedicatedSupply)

    def test_multiplexed_builds_pooled_supply(self):
        supply = MultiplexedConfig().build_supply(1000.0, 10, 50.0, 10.0, ION_TRAP)
        assert isinstance(supply, PooledSupply)

    def test_cqla_builds_pooled_supply(self):
        supply = CqlaConfig().build_supply(1000.0, 10, 50.0, 10.0, ION_TRAP)
        assert isinstance(supply, PooledSupply)

    def test_qla_two_qubit_movement_is_two_teleports(self):
        config = QlaConfig()
        assert config.movement_penalty(True, ION_TRAP) == 2 * teleport_latency(ION_TRAP)
        assert config.movement_penalty(False, ION_TRAP) == 0.0

    def test_multiplexed_movement_is_ballistic(self):
        config = MultiplexedConfig()
        assert config.movement_penalty(True, ION_TRAP) < teleport_latency(ION_TRAP)

    def test_cqla_cache_size(self):
        assert CqlaConfig(cache_fraction=0.25).cache_size(100) == 25
        assert CqlaConfig(cache_fraction=0.01).cache_size(10) == 2  # floor

    def test_cqla_validation(self):
        with pytest.raises(ValueError):
            CqlaConfig(cache_fraction=0.0)
        with pytest.raises(ValueError):
            CqlaConfig(ports=0)
