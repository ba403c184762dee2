"""Unit tests: the ``code_level`` axis of the exploration spaces.

The dimension is built by :mod:`repro.explore.space` and canonicalized
by the evaluator; level 1 is the paper's [[7,1,3]] Steane code.
"""

import pytest

from repro.explore.space import (
    Categorical,
    Integer,
    architecture_space,
    throughput_space,
)


class TestCodeLevelDimension:
    def test_default_spaces_have_no_level_axis(self, qrca8):
        assert "code_level" not in architecture_space(qrca8).names
        assert "code_level" not in throughput_space(qrca8).names

    def test_contiguous_levels_become_integer_axis(self, qrca8):
        space = architecture_space(qrca8, code_levels=(1, 2))
        dim = space.dimension("code_level")
        assert isinstance(dim, Integer)
        assert (dim.lo, dim.hi) == (1, 2)
        assert space.grid_size() == architecture_space(qrca8).grid_size() * 2

    def test_sparse_levels_become_categorical_axis(self, qrca8):
        space = throughput_space(qrca8, code_levels=(1, 3))
        dim = space.dimension("code_level")
        assert isinstance(dim, Categorical)
        assert dim.choices == (1, 3)

    def test_invalid_levels_rejected(self, qrca8):
        with pytest.raises(ValueError):
            architecture_space(qrca8, code_levels=())
        with pytest.raises(ValueError):
            architecture_space(qrca8, code_levels=(0, 1))

    def test_neighbor_of_a_level1_canonical_point(self, qrca8):
        """A canonical level-1 point carries no ``code_level``; the
        adaptive strategy perturbs it without one rather than failing."""
        import random

        from repro.explore.evaluator import Evaluator

        space = architecture_space(qrca8, code_levels=(1, 2))
        canonical = Evaluator(kernel="qrca", width=8).canonicalize(
            {"arch": "qla", "factory_area": 500.0, "code_level": 1}
        )
        assert "code_level" not in canonical
        moved = space.neighbor(canonical, random.Random(0), 0.2)
        assert "code_level" not in moved
        assert moved["arch"] == "qla"

    def test_fractional_code_level_rejected_not_truncated(self):
        from repro.explore.evaluator import Evaluator

        evaluator = Evaluator(kernel="qrca", width=8)
        with pytest.raises(ValueError, match="integer"):
            evaluator.canonicalize(
                {"arch": "qla", "factory_area": 500.0, "code_level": 1.9}
            )
        # Integral floats (e.g. from a numeric grid) are fine.
        canonical = evaluator.canonicalize(
            {"arch": "qla", "factory_area": 500.0, "code_level": 2.0}
        )
        assert canonical["code_level"] == 2

    def test_grid_enumeration_order_preserves_level1_prefix(self, qrca8):
        """The level axis appends; (arch, area) ordering is unchanged."""
        base = architecture_space(qrca8).grid_points()
        leveled = architecture_space(qrca8, code_levels=(1, 2)).grid_points()
        stripped = [
            {k: v for k, v in p.items() if k != "code_level"}
            for p in leveled
            if p["code_level"] == 1
        ]
        assert stripped == base
