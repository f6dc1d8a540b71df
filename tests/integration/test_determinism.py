"""Whole-system determinism: identical seeds give identical runs.

The experiments' reproducibility rests on this; these tests pin it at
the level of traces and network statistics, not just summary metrics.
"""

from collections import Counter

from repro.core.engine import MultiStageEventSystem
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload
from repro.sim.rng import RngRegistry


def run(seed):
    rngs = RngRegistry(seed)
    workload = BibliographicWorkload(rngs.stream("records"), n_records=150)
    system = MultiStageEventSystem(
        stage_sizes=(6, 3, 1), seed=seed, tracing=True
    )
    system.advertise(
        BIB_EVENT_CLASS, schema=workload.schema,
        association=workload.association(4),
    )
    system.drain()
    deliveries = Counter()
    sub_rng = rngs.stream("subs")
    for index in range(40):
        subscriber = system.create_subscriber(f"s{index}")
        system.subscribe(
            subscriber,
            workload.sample_subscription(sub_rng),
            event_class=BIB_EVENT_CLASS,
            handler=lambda e, m, s, _i=index: deliveries.update([(_i, m["title"])]),
        )
        system.drain()
    publisher = system.create_publisher()
    event_rng = rngs.stream("events")
    for _ in range(80):
        publisher.publish(workload.sample_record(event_rng))
    system.drain()
    return system, deliveries


def test_identical_seed_identical_everything():
    system_a, deliveries_a = run(5)
    system_b, deliveries_b = run(5)
    assert deliveries_a == deliveries_b
    assert (
        system_a.network.stats.total_messages
        == system_b.network.stats.total_messages
    )
    # total_bytes is NOT compared: the byte model reprs messages, and
    # subscription ids come from a process-global counter, so their digit
    # lengths differ between two runs in one interpreter.
    # The control-plane half of the trace (placement, redirects, joins).
    trace_a = [(s.time, s.kind, s.node) for s in system_a.tracer if s.trace_id is None]
    trace_b = [(s.time, s.kind, s.node) for s in system_b.tracer if s.trace_id is None]
    assert {"subscriber-insert", "joined"} <= {kind for _, kind, _ in trace_a}
    assert trace_a == trace_b
    homes_a = {s.name: s.home_of(s.subscriptions()[0].subscription_id).name
               for s in system_a.subscribers}
    homes_b = {s.name: s.home_of(s.subscriptions()[0].subscription_id).name
               for s in system_b.subscribers}
    assert homes_a == homes_b
    # The causal trace is part of "everything": same seed, same spans,
    # byte for byte.
    assert len(system_a.tracer) > 0
    assert system_a.tracer.dump() == system_b.tracer.dump()


def test_different_seed_differs_somewhere():
    system_a, deliveries_a = run(5)
    system_b, deliveries_b = run(6)
    assert deliveries_a != deliveries_b


def test_simulated_time_is_deterministic():
    system_a, _ = run(7)
    system_b, _ = run(7)
    assert system_a.sim.now == system_b.sim.now
    assert system_a.sim.processed_events == system_b.sim.processed_events
