"""Unit tests for FlowConfig validation (flow/config.py)."""

from dataclasses import replace

import pytest

from repro.flow import FlowConfig


class TestFlowConfig:
    def test_defaults_are_valid_and_frozen(self):
        config = FlowConfig()
        assert config.queue_capacity == 128
        assert config.policy == "drop_tail"
        with pytest.raises(AttributeError):
            config.queue_capacity = 1

    def test_replace_revalidates(self):
        config = FlowConfig()
        with pytest.raises(ValueError):
            replace(config, link_window=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("queue_capacity", 0),
            ("outbound_capacity", 0),
            ("link_window", 0),
            ("control_window", -1),
            ("policy", "coin_flip"),
            ("publisher_queue_capacity", 0),
            ("ewma_alpha", 1.5),
            ("overload_low", 0.9),  # >= overload_high
            # Counts are ints: NaN makes every offer shed and every take
            # fail, an infinite bound never binds.
            ("queue_capacity", float("nan")),
            ("link_window", float("nan")),
            ("control_window", 2.5),
            ("outbound_capacity", float("inf")),
            ("publisher_queue_capacity", True),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            FlowConfig(**{field: value})

    def test_priority_policy_accepted(self):
        config = FlowConfig(policy="priority_by_selectivity")
        assert config.policy == "priority_by_selectivity"
