"""Tests for POSGConfig validation and sizing."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.instance import InstanceTracker
from repro.core.matrices import make_shared_hashes
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.scheduler import POSGScheduler


class TestValidation:
    def test_defaults_valid(self):
        cfg = POSGConfig()
        assert cfg.window_size == 1024
        assert cfg.mu == 0.05

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.1])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            POSGConfig(epsilon=eps)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_bad_delta(self, delta):
        with pytest.raises(ValueError):
            POSGConfig(delta=delta)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            POSGConfig(window_size=0)

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            POSGConfig(mu=-0.01)

    def test_bad_rows(self):
        with pytest.raises(ValueError):
            POSGConfig(rows=0)

    def test_bad_cols(self):
        with pytest.raises(ValueError):
            POSGConfig(cols=-1)


class TestSizing:
    def test_auto_shape_from_accuracy(self):
        rows, cols = POSGConfig(epsilon=0.05, delta=0.1).sketch_shape
        assert rows == 3
        assert cols == 55

    def test_explicit_shape_wins(self):
        cfg = POSGConfig(rows=4, cols=54)
        assert cfg.sketch_shape == (4, 54)

    def test_paper_defaults_match_section_va(self):
        cfg = POSGConfig.paper_defaults()
        assert cfg.sketch_shape == (4, 54)
        assert cfg.window_size == 1024
        assert cfg.mu == 0.05

    def test_memory_bits_scales_with_shape(self):
        small = POSGConfig(rows=2, cols=10).memory_bits(1024, 4096)
        large = POSGConfig(rows=4, cols=100).memory_bits(1024, 4096)
        assert large > small

    def test_memory_bits_positive_for_tiny_inputs(self):
        assert POSGConfig(rows=1, cols=1).memory_bits(1, 1) > 0

    def test_frozen(self):
        cfg = POSGConfig()
        with pytest.raises(AttributeError):
            cfg.epsilon = 0.2


def _tracker(instance_id):
    config = POSGConfig()
    return InstanceTracker(instance_id, config, make_shared_hashes(config))


@pytest.mark.parametrize(
    "build, name",
    [
        (MultiSourcePOSGGrouping, "sources"),
        (_tracker, "instance_id"),
        (POSGScheduler, "k"),
    ],
    ids=["multisource-sources", "tracker-instance_id", "scheduler-k"],
)
@pytest.mark.parametrize("count", [2.5, np.float64(2.0), "2"])
def test_non_integer_counts_raise_a_type_error_naming_the_argument(build, name, count):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build(count)


@pytest.mark.parametrize("count", [2, np.int64(2)])
def test_integer_counts_are_normalised_to_int(count):
    assert type(MultiSourcePOSGGrouping(count).sources) is int
    assert type(_tracker(count).stats()["instance"]) is int
    assert type(POSGScheduler(count).k) is int
