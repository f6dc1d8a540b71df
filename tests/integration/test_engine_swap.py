"""The engine under the overlay is observationally invisible.

Whichever engine a broker matches with — and with the routing cache on
or off — the system must change only how
much work matching takes, never what it delivers: same-seed runs produce
byte-identical per-subscriber delivery traces (timestamps included) and
identical LC/RLC/MR counter inputs, node for node.

Since the default became the compiled engine without the cache (DESIGN
§12) the comparison that matters is three-way: a system built with *no*
engine or cache keyword, the old default (``engine="index",
cache=True``) and the oracle (``engine="table", cache=False``) — on the
static bibliographic run, and under the churn the flip newly exposes
the default to (slots recycled, attributes emptied and re-created,
leases expiring between ``publish_batch`` runs).
"""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.filters.compiled import CompiledMatchEngine
from repro.overlay.invariants import covering_violations, placement_violations
from repro.sim.rng import RngRegistry
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload

#: Counter fields feeding LC/RLC/MR — invariant across engine choices.
#: ``filter_evaluations`` is excluded: the compiled engine's bitmap
#: probes are accounted differently from the counting index's harvests
#: by design (that asymmetry is the speedup).
INVARIANT_FIELDS = (
    "events_received",
    "events_matched",
    "events_forwarded",
    "events_delivered",
    "filters_held",
    "max_filters_held",
)


#: What a system is compared across: nothing passed, what "nothing
#: passed" meant before the flip, and the Figure-6 oracle.
THREE_WAYS = {
    "default": dict(),
    "old default": dict(engine="index", cache=True),
    "oracle": dict(engine="table", cache=False),
}


def build(seed, stage_sizes, **options):
    """An advertised bibliographic system and a ``join(subscriber,
    filter)`` that records the subscriber's ``(time, title)`` trace."""
    rngs = RngRegistry(seed)
    workload = BibliographicWorkload(rngs.stream("records"), n_records=150)
    system = MultiStageEventSystem(stage_sizes=stage_sizes, seed=seed, **options)
    system.advertise(
        BIB_EVENT_CLASS, schema=workload.schema,
        association=workload.association(4),
    )
    system.drain()
    traces = {}

    def join(subscriber, filter_):
        trace = traces.setdefault(subscriber.name, [])
        (subscription,) = system.subscribe(
            subscriber, filter_, event_class=BIB_EVENT_CLASS,
            handler=lambda e, m, s, _t=trace: _t.append(
                (system.sim.now, m["title"])
            ),
        )
        return subscription

    return rngs, workload, system, traces, join


def run(seed, **options):
    rngs, workload, system, traces, join = build(seed, (6, 3, 1), **options)
    sub_rng = rngs.stream("subs")
    for index in range(40):
        join(system.create_subscriber(f"s{index}"), workload.sample_subscription(sub_rng))
        system.drain()
    publisher = system.create_publisher()
    event_rng = rngs.stream("events")
    for _ in range(80):
        publisher.publish(workload.sample_record(event_rng))
    system.drain()
    return system, traces


def counters_projection(system):
    return {
        stage: [
            (name, {f: getattr(c, f) for f in INVARIANT_FIELDS})
            for name, c in entries
        ]
        for stage, entries in system.counters_by_stage().items()
    }


def assert_indistinguishable(runs):
    """``{label: (system, traces)}``: every run equals the first."""
    (_, (reference, reference_traces)), *others = runs.items()
    assert any(reference_traces.values())  # non-trivial run
    for label, (system, traces) in others:
        # Byte-identical ordered (time, event) delivery sequences.
        assert repr(traces).encode() == repr(reference_traces).encode(), label
        assert counters_projection(system) == counters_projection(reference), label
        assert system.sim.now == reference.sim.now, label


@pytest.mark.parametrize("seed", [5, 9])
def test_the_default_is_the_old_default_is_the_oracle(seed):
    runs = {label: run(seed, **options) for label, options in THREE_WAYS.items()}
    assert_indistinguishable(runs)
    default, _ = runs["default"]
    for node in default.hierarchy.nodes():
        assert type(node._match_engine()) is CompiledMatchEngine
        assert node.counters.cache.lookups == 0


@pytest.mark.parametrize("seed", [5, 9])
def test_compiled_engine_preserves_delivery_traces_exactly(seed):
    assert_indistinguishable({
        "compiled": run(seed, engine="compiled", cache=True),
        "index": run(seed, engine="index", cache=True),
    })


TTL = 1.0


def run_churn(seed, **options):
    """Subscriptions come, go (told and untold) and come back between
    ``publish_batch`` runs, with the lease tasks running."""
    rngs, workload, system, traces, subscribe = build(
        seed, (10, 3, 1), ttl=TTL, **options
    )
    sub_rng = rngs.stream("subs")
    churn_rng = rngs.stream("churn")
    event_rng = rngs.stream("events")
    #: subscriber -> [(subscription id, filter)] it currently holds.
    held = {}
    dropped = []

    def join(subscriber, filter_):
        subscription = subscribe(subscriber, filter_)
        held[subscriber].append((subscription.subscription_id, filter_))

    def leave(subscriber, explicit):
        subscription_id, filter_ = held[subscriber].pop(0)
        # Untold, the home only finds out when the lease runs out.
        subscriber.unsubscribe(subscription_id, explicit=explicit)
        dropped.append((subscriber, filter_))

    subscribers = [system.create_subscriber(f"s{index}") for index in range(40)]
    for subscriber in subscribers:
        held[subscriber] = []
        join(subscriber, workload.sample_subscription(sub_rng))
        system.drain()
    system.start_maintenance()
    publisher = system.create_publisher()

    def publish_and_check(step):
        publisher.publish_batch(
            [workload.sample_record(event_rng) for _ in range(30)]
        )
        system.run_for(step)
        assert covering_violations(system.hierarchy, system.sim.now) == []
        assert placement_violations(system.hierarchy) == []

    for round_index in range(6):
        publish_and_check(0.4 * TTL)
        members = [s for s in subscribers if held[s]]
        for subscriber in churn_rng.sample(members, min(6, len(members))):
            leave(subscriber, explicit=churn_rng.random() < 0.5)
        # Half the joiners take back a filter somebody dropped.
        for _ in range(6):
            subscriber = churn_rng.choice(subscribers)
            if dropped and churn_rng.random() < 0.5:
                _, filter_ = dropped.pop(churn_rng.randrange(len(dropped)))
            else:
                filter_ = workload.sample_subscription(sub_rng)
            join(subscriber, filter_)
        publish_and_check(0.4 * TTL)
    # Everybody leaves, half of them without a word: past 3 x TTL every
    # table is empty (every attribute of every compiled engine gone) ...
    for subscriber in subscribers:
        while held[subscriber]:
            leave(subscriber, explicit=churn_rng.random() < 0.5)
    for _ in range(4):
        publish_and_check(TTL)
    empty_tables_seen = all(len(n.table) == 0 for n in system.hierarchy.nodes())
    # ... and everybody comes back.
    for subscriber in subscribers:
        join(subscriber, workload.sample_subscription(sub_rng))
    for _ in range(3):
        publish_and_check(0.4 * TTL)
    system.stop_maintenance()
    system.drain()
    assert covering_violations(system.hierarchy, system.sim.now) == []
    assert placement_violations(system.hierarchy) == []
    return system, traces, empty_tables_seen


@pytest.mark.parametrize("seed", [5, 9])
def test_the_default_is_the_old_default_is_the_oracle_under_churn(seed):
    runs = {}
    for label, options in THREE_WAYS.items():
        system, traces, emptied = run_churn(seed, **options)
        assert emptied, label
        runs[label] = (system, traces)
    assert_indistinguishable(runs)
    default, traces = runs["default"]
    # Deliveries on both sides of the everybody-left gap.
    times = sorted(time for trace in traces.values() for time, _ in trace)
    assert times[0] < 3 * TTL and times[-1] > 9 * TTL
    nodes = default.hierarchy.nodes()
    assert sum(n.counters.compile_rebuilds for n in nodes) > 0
    # Slots were handed out again: fewer bit positions than filters ever
    # stored; and the engines were rebuilt from nothing after the gap.
    assert any(n.table._next_slot < n.table._next_handle for n in nodes)
    assert all(n.table._attributes for n in nodes if len(n.table))


def test_compiled_engine_batch_path_engages(monkeypatch):
    """Every served run is one ``match_batch`` call, multi-event runs
    among them, and every event of a run is received exactly once."""
    runs = []
    match_batch = CompiledMatchEngine.match_batch

    def counting(engine, events):
        runs.append(len(events))
        return match_batch(engine, events)

    monkeypatch.setattr(CompiledMatchEngine, "match_batch", counting)
    compiled, _ = run(7)
    counters = [n.counters for n in compiled.hierarchy.nodes()]
    assert max(runs) > 1
    assert len(runs) == sum(c.batches for c in counters)
    assert sum(runs) == sum(c.events_received for c in counters)
    assert sum(c.compile_rebuilds for c in counters) > 0


def test_compiled_engine_without_cache_still_identical():
    compiled, traces = run(13, engine="compiled", cache=False)
    assert_indistinguishable({
        "compiled": (compiled, traces),
        "index": run(13, engine="index", cache=False),
    })


def test_compiled_engine_composes_with_routing_cache():
    compiled, _ = run(17, engine="compiled", cache=True)
    counters = [n.counters for n in compiled.hierarchy.nodes()]
    assert sum(c.cache.hits for c in counters) > 0  # memo engaged on top


def test_engine_argument_validation():
    with pytest.raises(ValueError):
        MultiStageEventSystem(engine="bitmap")
