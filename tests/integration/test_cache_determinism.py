"""The hot-path optimisations are observationally invisible.

The routing-decision cache and batched dispatch must not change *what*
the system does — only how much work it takes.  This pins the acceptance
criterion: with the cache on and a burst coalesced into runs vs the
cache off and every run of length 1, the per-subscriber delivery traces
are byte-identical (publish→deliver latencies included) and the
LC/RLC/MR inputs agree node for node.  Only the cache/batch counters and
the evaluation-work counters are allowed to differ.

Batching is not a broker option: same-instant arrivals always share a
run.  The unbatched arm gets its runs of one from the publisher side — it
publishes one event and drains before the next.
"""

from repro.core.engine import MultiStageEventSystem
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload
from repro.sim.rng import RngRegistry

#: Counter fields feeding LC (events x filters), RLC, and MR — these must
#: be invariant.  ``filter_evaluations`` (cache hits skip probes) and the
#: cache/batch bookkeeping are the optimisations' whole point and are
#: excluded; forwarded counts stay equal because batching coalesces
#: *messages*, not per-event forwarding decisions.
INVARIANT_FIELDS = (
    "events_received",
    "events_matched",
    "events_forwarded",
    "events_delivered",
    "filters_held",
    "max_filters_held",
)


def run(seed, cache, burst):
    rngs = RngRegistry(seed)
    workload = BibliographicWorkload(rngs.stream("records"), n_records=150)
    system = MultiStageEventSystem(
        stage_sizes=(6, 3, 1), seed=seed, cache=cache
    )
    system.advertise(
        BIB_EVENT_CLASS, schema=workload.schema,
        association=workload.association(4),
    )
    system.drain()
    traces = {}
    published_at = [0.0]
    sub_rng = rngs.stream("subs")
    for index in range(40):
        subscriber = system.create_subscriber(f"s{index}")
        trace = traces.setdefault(subscriber.name, [])
        system.subscribe(
            subscriber,
            workload.sample_subscription(sub_rng),
            event_class=BIB_EVENT_CLASS,
            handler=lambda e, m, s, _t=trace: _t.append(
                (round(system.sim.now - published_at[0], 9), m["title"])
            ),
        )
        system.drain()
    publisher = system.create_publisher()
    event_rng = rngs.stream("events")
    published_at[0] = system.sim.now
    for _ in range(80):
        publisher.publish(workload.sample_record(event_rng))
        if not burst:
            system.drain()
            published_at[0] = system.sim.now
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


def test_cache_and_batch_preserve_delivery_traces_exactly():
    on, traces_on = run(5, cache=True, burst=True)
    off, traces_off = run(5, cache=False, burst=False)

    # Byte-identical ordered (latency, event) delivery sequences.
    assert repr(traces_on).encode() == repr(traces_off).encode()
    assert any(traces_on.values())  # non-trivial run

    # The optimisations actually engaged in the "on" run.
    totals_on = [n.counters for n in on.hierarchy.nodes()]
    assert sum(c.cache.hits for c in totals_on) > 0
    assert max(c.max_batch_size for c in totals_on) > 1
    totals_off = [n.counters for n in off.hierarchy.nodes()]
    assert sum(c.cache.lookups for c in totals_off) == 0
    assert max(c.max_batch_size for c in totals_off) <= 1


def test_cache_and_batch_preserve_lc_rlc_mr_inputs():
    on, _ = run(9, cache=True, burst=True)
    off, _ = run(9, cache=False, burst=False)
    assert counters_projection(on) == counters_projection(off)


def test_each_optimisation_is_independently_invisible():
    baseline, traces_baseline = run(11, cache=False, burst=False)
    cache_only, traces_cache = run(11, cache=True, burst=False)
    batch_only, traces_batch = run(11, cache=False, burst=True)
    assert traces_cache == traces_baseline
    assert traces_batch == traces_baseline
    assert counters_projection(cache_only) == counters_projection(baseline)
    assert counters_projection(batch_only) == counters_projection(baseline)
