"""End-to-end flows through the overlay: install, derive, crash, renew.

These drive :meth:`MultiStageEventSystem.install_flows` over the
deterministic simulator and pin the broker-side contract of DESIGN §15:

- derived events re-enter the normal publish path (matched, covered,
  logged, traced) under the reserved ``(broker:flow, seq)`` namespace
  and count toward ``events_published`` exactly once, at the deriving
  broker;
- operator state is soft state: a crash drops open windows with
  ``window-dropped`` spans and the registrar's renewals re-install the
  flow (refresh-or-restore), with derived sequence numbers continuing
  monotonically;
- identical re-installs are pure lease refreshes (window state
  survives), changed specs rebuild the machine, silent flows expire
  with their lease;
- a flow never consumes its own output, and the metrics layer
  tolerates brokers with zero flows.
"""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.filters.filter import Filter
from repro.log import LogConfig, dropped_window_excusals
from repro.metrics.report import aggregate_stream_counters, render_stream_summary
from repro.overlay.invariants import soft_state_violations
from repro.workloads.telemetry import (
    ROLLUP_EVENT_CLASS,
    TELEMETRY_EVENT_CLASS,
    TELEMETRY_SCHEMA,
    TelemetryWorkload,
)

WINDOW = 1.0


def build_system(**overrides):
    options = dict(
        stage_sizes=(2, 2, 1),
        seed=5,
        ttl=30.0,
        tracing=True,
        log=LogConfig(),
    )
    options.update(overrides)
    system = MultiStageEventSystem(**options)
    workload = TelemetryWorkload(
        system.rngs.stream("telemetry"), n_regions=2, sensors_per_region=4
    )
    system.advertise(TELEMETRY_EVENT_CLASS, schema=TELEMETRY_SCHEMA)
    system.drain()
    return system, workload


def publish_windows(system, workload, publisher, n_windows):
    step = WINDOW / (len(workload.regions) * 4)
    published = 0
    for _ in range(n_windows):
        for reading in workload.readings_round():
            publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
            published += 1
            system.run_for(step)
    system.run_for(2 * WINDOW)
    return published


class TestDerivedPath:
    def test_rollup_end_to_end(self):
        system, workload = build_system()
        system.install_flows([workload.rollup_flow(window=WINDOW)])
        system.drain()
        root = system.root
        assert root.flows() == ("region-rollup",)

        rollups = []
        subscriber = system.create_subscriber("dash")
        system.subscribe(
            subscriber,
            workload.rollup_subscription("r0"),
            handler=lambda e, m, s: rollups.append(dict(m)),
        )
        system.drain()
        publisher = system.create_publisher("feed")
        published = publish_windows(system, workload, publisher, 3)

        assert len(rollups) == 3
        for rollup in rollups:
            assert rollup["class"] == ROLLUP_EVENT_CLASS
            assert rollup["region"] == "r0"
            assert rollup["n"] == 4
            assert rollup["window_end"] == rollup["window_start"] + WINDOW

        # Derived events are published exactly once, at the deriving
        # broker; raw publishes ride the publisher-runtime path and
        # never touch the broker-side counter.
        nodes = system.hierarchy.nodes()
        derived = 3 * len(workload.regions)
        assert root.counters.events_published == derived
        assert sum(n.counters.events_published for n in nodes) == derived
        assert root.counters.flow_events_in == published
        assert root.counters.flow_events_out == derived

        # Derived ids live in the reserved namespace and are logged at
        # the deriving broker with contiguous sequences from 0.
        namespace = f"{root.name}:region-rollup"
        assert root.log.watermarks()[namespace] == derived - 1

        # derive spans carry provenance; the publish span at the
        # deriving broker makes every delivered path reconstructible.
        derive_spans = system.tracer.kinds("derive")
        assert len(derive_spans) == derived
        for span in derive_spans:
            assert span.node == root.name
            assert span.detail("flow") == "region-rollup"
            assert span.detail("op") == "window"
            assert span.detail("inputs") == 4
        assert system.tracer.incomplete_deliveries() == []

    def test_flow_never_consumes_own_output(self):
        # A match-everything derive flow sees its own derived events
        # re-enter the broker; the reserved-namespace skip must keep the
        # cascade at exactly one derived event per raw input.
        system, workload = build_system()
        graph_filter = Filter([])  # matches every event class
        from repro.streams import FlowGraph

        graph = FlowGraph()
        graph.derive("mirror", graph_filter, "Mirror", select=("region", "reading"))
        system.install_flows(graph)
        system.drain()

        publisher = system.create_publisher("feed")
        published = publish_windows(system, workload, publisher, 1)
        root = system.root
        assert root.counters.flow_events_out == published
        assert root.counters.events_published == published


class TestCrashSemantics:
    def attach_archiver(self, system, workload, at_node):
        archiver = system.create_subscriber("archive")
        system.subscribe(
            archiver,
            workload.archive_subscription(),
            handler=lambda e, m, s: None,
            at_node=at_node,
        )
        system.drain()
        return archiver

    def test_crash_drops_windows_and_renewal_reinstalls(self):
        system, workload = build_system()
        stage1 = system.hierarchy.stage1_nodes()
        victim = stage1[0].parent
        registrar = system.install_flows(
            [workload.rollup_flow(window=WINDOW, broker=victim.name)]
        )
        self.attach_archiver(system, workload, stage1[0])
        registrar.ttl = 2.0
        registrar.start_maintenance()

        publisher = system.create_publisher("feed")
        step = WINDOW / 8
        for _ in range(12):  # a window and a half in flight
            for reading in workload.readings_round()[:4]:
                publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
            system.run_for(step)

        assert victim.flows() == ("region-rollup",)
        seq_before = victim.log.watermarks().get(
            f"{victim.name}:region-rollup", -1
        )
        victim.crash()

        # Soft state gone, loss announced, audit excusals derivable.
        assert victim.flows() == ()
        assert soft_state_violations(victim) == []
        assert victim.counters.flow_windows_dropped > 0
        dropped_spans = system.tracer.kinds("window-dropped")
        assert len(dropped_spans) == victim.counters.flow_windows_dropped
        for span in dropped_spans:
            assert span.detail("reason") == "crash"
            assert span.detail("pending") > 0
        assert len(dropped_window_excusals(system.tracer)) == len(dropped_spans)

        victim.restart()
        # The registrar's next renewal re-installs the flow.
        system.run_for(3 * registrar.ttl)
        assert victim.flows() == ("region-rollup",)

        for _ in range(16):  # two more full windows
            for reading in workload.readings_round()[:4]:
                publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
            system.run_for(step)
        system.run_for(2 * WINDOW)

        # Derived sequences continued monotonically: no id reuse across
        # the crash (the log would have rejected duplicates silently).
        seq_after = victim.log.watermarks()[f"{victim.name}:region-rollup"]
        assert seq_after > seq_before
        registrar.stop_maintenance()

    def test_identical_reinstall_is_pure_refresh(self):
        system, workload = build_system()
        spec = workload.rollup_flow(window=WINDOW)
        registrar = system.install_flows([spec])
        system.drain()
        root = system.root

        rollups = []
        subscriber = system.create_subscriber("dash")
        system.subscribe(
            subscriber,
            workload.rollup_subscription("r0"),
            handler=lambda e, m, s: rollups.append(m["n"]),
        )
        system.drain()
        publisher = system.create_publisher("feed")

        # Half a window of events, a mid-window re-install of the
        # identical spec, then the other half: the open window must
        # survive the refresh and emit the full count.  (No drain()
        # here — draining would run the armed boundary timer and close
        # the window early.)
        for reading in workload.readings_round()[:2]:
            publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
        system.run_for(0.05)
        registrar.install(root, spec)
        system.run_for(0.05)
        for reading in workload.readings_round()[:2]:
            publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
        system.run_for(2 * WINDOW)
        assert rollups == [4]

    def test_changed_spec_rebuilds_the_machine(self):
        system, workload = build_system()
        registrar = system.install_flows([workload.rollup_flow(window=WINDOW)])
        system.drain()
        root = system.root

        publisher = system.create_publisher("feed")
        for reading in workload.readings_round()[:2]:
            publisher.publish(reading, event_class=TELEMETRY_EVENT_CLASS)
        system.run_for(0.2)
        assert root.flow_host.flows["region-rollup"].pending_windows()

        # Same name, different window size: a fresh machine, no carry-over.
        registrar.install(root, workload.rollup_flow(window=2 * WINDOW))
        system.drain()
        assert root.flows() == ("region-rollup",)
        assert root.flow_host.flows["region-rollup"].pending_windows() == []
        assert root.flow_host.flows["region-rollup"].spec.operator.size == 2 * WINDOW

    def test_silent_flow_lease_expires(self):
        system, workload = build_system(ttl=2.0)
        registrar = system.install_flows([workload.rollup_flow(window=WINDOW)])
        system.drain()
        root = system.root
        assert root.flows() == ("region-rollup",)

        # Broker maintenance purges; the registrar stays silent.
        system.start_maintenance()
        registrar.stop_maintenance()
        system.run_for(system.ttl * root.expiry_factor + 2 * system.ttl)
        assert root.flows() == ()
        removes = system.tracer.kinds("flow-remove")
        assert removes and removes[-1].detail("reason") == "lease-expired"
        system.stop_maintenance()


class TestMetricsTolerance:
    def test_report_tolerates_zero_flow_brokers(self):
        # Snapshot dicts from pre-flows sessions carry no flow counters
        # at all; the stream report must render zeros, not KeyError.
        bare = {"events_processed": 7}
        table = render_stream_summary([("N1.0", bare)])
        assert "TOTAL" in table
        totals = aggregate_stream_counters([bare, {"flow_events_in": 3}])
        assert totals["flow_events_in"] == 3
        assert totals["flows_installed"] == 0

    def test_live_counters_render(self):
        system, workload = build_system()
        system.install_flows([workload.rollup_flow(window=WINDOW)])
        system.drain()
        publisher = system.create_publisher("feed")
        publish_windows(system, workload, publisher, 1)
        named = [(n.name, n.counters) for n in system.hierarchy.nodes()]
        table = render_stream_summary(named)
        assert system.root.name in table
        snapshot = system.root.counters.snapshot()
        assert snapshot["flow_events_out"] == len(workload.regions)


class TestEngineValidation:
    def test_unknown_hosting_broker_rejected(self):
        system, workload = build_system()
        with pytest.raises(KeyError, match="no broker"):
            system.install_flows(
                [workload.rollup_flow(window=WINDOW, broker="N9.9")]
            )

    def test_output_class_auto_advertised(self):
        system, workload = build_system()
        system.install_flows([workload.rollup_flow(window=WINDOW)])
        advertisement = system.advertisements.get(ROLLUP_EVENT_CLASS)
        assert advertisement is not None
