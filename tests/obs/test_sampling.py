"""Unit tests for per-stage sampling (obs/sampling.py) and the
recurring-timer kernel primitive that drives it."""

import pytest

from repro.obs.sampling import METRICS, StageSampler
from repro.sim.kernel import SimulationError, Simulator


class _Counters:
    def __init__(self):
        self.events_received = 0
        self.control_retransmits = 0


class _FakeBroker:
    """The slice of BrokerNode the sampler reads."""

    def __init__(self, name, stage):
        self.name = name
        self.stage = stage
        self.counters = _Counters()
        self.depth = 0
        self.table = {}

    def queue_depth(self):
        return self.depth


class TestSimulatorEvery:
    def test_ticks_land_on_fixed_grid(self):
        sim = Simulator()
        times = []
        sim.every(0.5, lambda: times.append(sim.now))
        sim.run(until=2.2)
        assert times == [0.5, 1.0, 1.5, 2.0]

    def test_cancel_stops_future_ticks(self):
        sim = Simulator()
        times = []
        handle = sim.every(0.5, lambda: times.append(sim.now))
        sim.run(until=1.1)
        handle.cancel()
        sim.run(until=3.0)
        assert times == [0.5, 1.0]

    def test_callback_may_cancel_its_own_handle(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(0.5, lambda: (ticks.append(sim.now), handle.cancel()))
        sim.run(until=5.0)
        assert ticks == [0.5]

    def test_ordering_against_same_tick_one_shots(self):
        """Clock ties break by scheduling order.  The first tick is
        enqueued at arming time, so it beats a one-shot scheduled
        *afterwards* for the same instant; every later tick is enqueued
        during the previous tick's fire, so a one-shot armed before that
        moment wins its tie."""
        sim = Simulator()
        order = []
        sim.every(1.0, lambda: order.append("tick"))
        sim.schedule(1.0, lambda: order.append("late one-shot"))
        sim.schedule(2.0, lambda: order.append("early one-shot"))
        sim.run(until=2.0)
        assert order == ["tick", "late one-shot", "early one-shot", "tick"]

    def test_non_positive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(-1.0, lambda: None)


class TestStageSampler:
    def _sampler(self):
        sim = Simulator()
        sampler = StageSampler(sim, interval=0.5)
        top = _FakeBroker("N2.1", 2)
        left = _FakeBroker("N1.1", 1)
        right = _FakeBroker("N1.2", 1)
        sampler.attach([top, left, right])
        return sim, sampler, top, left, right

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            StageSampler(Simulator(), interval=0.0)

    def test_tick_records_rates_and_gauges(self):
        sim, sampler, top, left, _ = self._sampler()
        sampler.start()
        top.counters.events_received = 10
        top.depth = 2
        left.table["f"] = object()
        sim.run(until=0.6)  # one tick at t=0.5
        top.counters.events_received = 12
        top.counters.control_retransmits = 3
        sim.run(until=1.1)  # second tick at t=1.0
        sampler.stop()
        assert sampler.times == [0.5, 1.0]
        assert sampler.samples["N2.1"]["events_per_s"] == [20.0, 4.0]
        assert sampler.samples["N2.1"]["retransmits_per_s"] == [0.0, 6.0]
        assert sampler.samples["N2.1"]["queue_depth"] == [2.0, 2.0]
        assert sampler.samples["N1.1"]["table_size"] == [1.0, 1.0]

    def test_stage_series_sums_nodes_highest_stage_first(self):
        sim, sampler, top, left, right = self._sampler()
        sampler.start()
        left.counters.events_received = 4
        right.counters.events_received = 6
        sim.run(until=0.6)
        sampler.stop()
        series = sampler.stage_series("events_per_s")
        assert [name for name, _ in series] == ["stage 2", "stage 1"]
        assert dict(series)["stage 1"] == [20.0]

    def test_peak_sorts_descending_with_name_tiebreak(self):
        sim, sampler, top, left, right = self._sampler()
        sampler.start()
        left.counters.events_received = 5
        right.counters.events_received = 5
        top.counters.events_received = 1
        sim.run(until=0.6)
        sampler.stop()
        assert sampler.peak("events_per_s") == [
            ("N1.1", 10.0),
            ("N1.2", 10.0),
            ("N2.1", 2.0),
        ]

    def test_unknown_metric_raises(self):
        _, sampler, *_ = self._sampler()
        with pytest.raises(KeyError):
            sampler.node_series("latency")
        assert "latency" not in METRICS

    def test_attach_is_idempotent_per_name(self):
        sim = Simulator()
        sampler = StageSampler(sim)
        node = _FakeBroker("N1.1", 1)
        sampler.attach([node])
        sampler.attach([node])
        assert list(sampler.samples) == ["N1.1"]

    def test_start_stop_running_flag(self):
        sim, sampler, *_ = self._sampler()
        assert not sampler.running
        sampler.start()
        assert sampler.running
        sampler.start()  # second start is a no-op, not a double tick
        sim.run(until=0.6)
        sampler.stop()
        assert not sampler.running
        assert sampler.times == [0.5]
