"""Micro-benchmarks: filter matching engines (§4.6).

The paper presents the naive Figure-6 table "for clarity" and defers
efficient indexing to related work; this bench quantifies the gap
between that table and the counting index on identical populations, at
the per-node filter counts the macro scenarios produce and beyond.
The cached variants measure the routing-decision memo on top of either
engine, including the cache-on/off speedup on a repetitive workload.
``test_compiled_speedup_sweep`` extends the table-size sweep to the
10^4/10^5-filter populations of the paper's Section 5 scalability story
and gates the compiled bitmap engine's >=10x speedup over the counting
index (the results land in ``benchmarks/results/``).
``test_stage0_break_even_sweep`` measures the one other place that
matches — a subscriber runtime's stage 0 — as a scan of the home's
filters and as one engine call, over 1…50 states per home: the
break-even ``STAGE0_SCAN_MAX`` is read off it (DESIGN §16).
``test_probe_order_does_not_follow_insertion_order`` gates that the
compiled engine's cost does not depend on which attribute a table
happened to register first (DESIGN §12).
"""

import json
import os
import random
import time

import pytest

from repro.core.subscription import Subscription
from repro.events.base import PropertyEvent
from repro.events.serialization import marshal
from repro.experiments.common import ScenarioConfig
from repro.filters.compiled import CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import DEFAULT_ENGINE, CachedMatchEngine
from repro.filters.filter import Filter, _properties_of
from repro.filters.index import CountingIndex
from repro.filters.operators import EQ
from repro.filters.table import FilterTable
from repro.metrics.counters import CacheStats
from repro.overlay import subscriber
from repro.overlay.messages import AcceptedAt, Publish
from repro.overlay.subscriber import STAGE0_SCAN_MAX, SubscriberRuntime
from repro.sim.kernel import Process, Simulator
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload
from repro.workloads.subscriptions import SubscriptionGenerator

from .conftest import RESULTS_DIR

GENERATOR = SubscriptionGenerator(
    [("class", 5), ("category", 40), ("vendor", 200)],
    numeric_attribute="price",
)

ENGINES = {
    "table": FilterTable,
    "index": CountingIndex,
    "compiled": CompiledMatchEngine,
    "cached-table": lambda: CachedMatchEngine(FilterTable()),
    "cached-index": lambda: CachedMatchEngine(CountingIndex()),
    "cached-compiled": lambda: CachedMatchEngine(CompiledMatchEngine()),
}


def build_population(count, seed=7):
    rng = random.Random(seed)
    return GENERATOR.dissimilar_population(rng, count)


def build_events(count, seed=11):
    rng = random.Random(seed)
    events = []
    for _ in range(count):
        events.append(
            {
                "class": f"class-{rng.randrange(5)}",
                "category": f"category-{rng.randrange(40)}",
                "vendor": f"vendor-{rng.randrange(200)}",
                "price": round(rng.uniform(10.0, 1000.0), 2),
            }
        )
    return events


def build_repetitive_events(distinct=50, repeats=40, seed=13):
    """A hot-path workload: a small set of events republished many times."""
    rng = random.Random(seed)
    base = build_events(distinct, seed=seed)
    events = base * repeats
    rng.shuffle(events)
    return events


@pytest.mark.parametrize(
    "engine_name", ["table", "index", "compiled", "cached-table", "cached-index"]
)
@pytest.mark.parametrize("population_size", [100, 1000, 5000])
def test_match_throughput(benchmark, engine_name, population_size):
    engine = ENGINES[engine_name]()
    for position, filter_ in enumerate(build_population(population_size)):
        engine.insert(filter_, position)
    events = build_events(200)

    def match_all():
        total = 0
        for event in events:
            total += len(engine.match(event))
        return total

    matched = benchmark(match_all)
    assert matched >= 0


def test_engines_agree_at_scale():
    engines = [factory() for factory in ENGINES.values()]
    for position, filter_ in enumerate(build_population(2000)):
        for engine in engines:
            engine.insert(filter_, position)
    reference = engines[0]
    for event in build_events(100):
        expected = reference.destinations(event)
        for engine in engines[1:]:
            assert engine.destinations(event) == expected


def test_cache_speedup_on_repetitive_workload(report):
    """Acceptance gate: >=2x match throughput with the routing cache on.

    A broker in steady state sees the same few event shapes over and
    over; the memo turns each repeat into a dict hit instead of a full
    counting pass over the population.
    """
    population = build_population(5000)
    events = build_repetitive_events(distinct=50, repeats=40)

    def timed(engine):
        for position, filter_ in enumerate(population):
            engine.insert(filter_, position)
        # Warm-up pass so both variants run on hot structures.
        for event in events[:50]:
            engine.match(event)
        start = time.perf_counter()
        total = 0
        for event in events:
            total += len(engine.match(event))
        return time.perf_counter() - start, total

    stats = CacheStats()
    uncached_time, uncached_total = timed(CountingIndex())
    cached_time, cached_total = timed(
        CachedMatchEngine(CountingIndex(), stats=stats)
    )
    assert cached_total == uncached_total
    assert stats.hits > stats.misses  # the workload really is repetitive

    speedup = uncached_time / cached_time
    report()
    report("=== Routing-decision cache on/off (counting index, 5000 filters) ===")
    report(
        f"uncached: {uncached_time * 1e3:.1f} ms, "
        f"cached: {cached_time * 1e3:.1f} ms, speedup: {speedup:.1f}x "
        f"(hits={stats.hits}, misses={stats.misses}, "
        f"hit rate={stats.hit_rate():.2f})"
    )
    assert speedup >= 2.0, (
        f"cache must give >=2x on a repetitive workload, got {speedup:.2f}x"
    )


def test_compiled_speedup_sweep():
    """Acceptance gate: compiled bitmap matching >=10x the counting index
    at 10^4- and 10^5-filter tables (§5-scale subscription populations).

    Events run through ``match_batch`` on the compiled engine — the shape
    broker dispatch uses — and through per-event ``match`` on the
    counting index (its only shape).  Every event's match list must be
    identical between engines before any timing is trusted.  The rows go
    to ``benchmarks/results/compiled_speedup.json``.
    """
    gate_sizes = {10_000, 100_000}
    rows = []
    for size, event_count in ((1_000, 100), (10_000, 50), (100_000, 20)):
        population = build_population(size)
        events = build_events(event_count)

        index = CountingIndex()
        engine = CompiledMatchEngine()
        for position, filter_ in enumerate(population):
            index.insert(filter_, position)
            engine.insert(filter_, position)
        index.match(events[0])  # warm
        index_start = time.perf_counter()
        expected = [index.match(event) for event in events]
        index_time = time.perf_counter() - index_start

        engine.match_batch(events[:2])  # warm: compile
        compiled_start = time.perf_counter()
        results = engine.match_batch(events)
        compiled_time = time.perf_counter() - compiled_start
        assert results == expected, f"compiled diverged at {size} filters"
        rows.append(
            {
                "filters": size,
                "events": event_count,
                "index_ms": round(index_time * 1e3, 3),
                "compiled_ms": round(compiled_time * 1e3, 3),
                "speedup": round(index_time / compiled_time, 1),
            }
        )
    result = {
        "benchmark": "compiled_speedup",
        "unit": "ms per run: CountingIndex.match per event, "
        "CompiledMatchEngine.match_batch over the run",
        "gate": ">=10x at 10^4 and 10^5 filters",
        "rows": rows,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "compiled_speedup.json"), "w") as out:
        json.dump(result, out, indent=1)
        out.write("\n")
    for row in rows:
        if row["filters"] in gate_sizes:
            assert row["speedup"] >= 10.0, (
                f"compiled engine must be >=10x the counting index at "
                f"{row['filters']} filters, got {row['speedup']}x"
            )


#: The ``sim_match_10k`` leaf table's attributes and domain sizes:
#: every filter shares the one ``class``, ``symbol`` nearly tells them
#: apart.
QUOTE_DOMAINS = (("class", 1), ("region", 4), ("sector", 10), ("symbol", 5000))


def test_probe_order_does_not_follow_insertion_order():
    """Gate: matching costs the same whichever attribute was registered
    first.

    A 5 000-filter, four-attribute equality table shaped like a
    ``sim_match_10k`` leaf is built twice — each filter spelled ``class``
    first, then ``symbol`` first — and the same events are matched
    against both.  Were attributes probed in registration order, the
    first table would probe ``class`` (which clears nothing) first and
    ``symbol`` last: 4 probes per event against 1.75, and 2.1x the
    second's cost.  The engine picks its own order, so the two costs
    must be within 1.15x.  The row goes to
    ``benchmarks/results/probe_order.json``.
    """
    rng = random.Random(27)
    rows = [
        [(name, f"{name}-{rng.randrange(size)}") for name, size in QUOTE_DOMAINS]
        for _ in range(5000)
    ]
    events = [
        PropertyEvent({name: f"{name}-{rng.randrange(size)}" for name, size in QUOTE_DOMAINS})
        for _ in range(2000)
    ]
    repeats = 7
    cost_us, probes, delivered = {}, {}, {}
    for first in ("class", "symbol"):
        engine = CompiledMatchEngine()
        for position, row in enumerate(rows):
            pairs = row if first == "class" else row[::-1]
            engine.insert(Filter(AttributeConstraint(a, EQ, v) for a, v in pairs), position)
        engine.match_batch(events[:2])  # compile
        before = engine.evaluations
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            results = engine.match_batch(events)
            best = min(best, time.perf_counter() - start)
        cost_us[first] = round(best / len(events) * 1e6, 3)
        probes[first] = round((engine.evaluations - before) / repeats / len(events), 3)
        delivered[first] = [sorted(i for _, ids in result for i in ids) for result in results]
    assert delivered["class"] == delivered["symbol"]
    ratio = round(max(cost_us.values()) / min(cost_us.values()), 3)
    row = {
        "benchmark": "probe_order",
        "unit": "us per event through CompiledMatchEngine.match_batch, best of repeats",
        "filters": len(rows),
        "events": len(events),
        "repeats": repeats,
        "attributes": [name for name, _ in QUOTE_DOMAINS],
        "class_first_us": cost_us["class"],
        "symbol_first_us": cost_us["symbol"],
        "class_first_probes": probes["class"],
        "symbol_first_probes": probes["symbol"],
        "slower_over_faster": ratio,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "probe_order.json"), "w") as out:
        json.dump(row, out, indent=1)
        out.write("\n")
    assert ratio <= 1.15, f"matching cost must not follow registration order: {row}"


@pytest.mark.parametrize("engine_name", ["table", "index", "compiled"])
def test_insert_throughput(benchmark, engine_name):
    population = build_population(1000)

    def insert_all():
        engine = ENGINES[engine_name]()
        for position, filter_ in enumerate(population):
            engine.insert(filter_, position)
        return engine

    engine = benchmark(insert_all)
    assert len(engine) == len(set(population))


class _NoNetwork:
    def send(self, src, dst, message):
        pass


def _stage0_home(filters):
    """A runtime holding one handler-less subscription per filter, all
    homed at one node: ``receive`` is the match and its bookkeeping."""
    sim = Simulator()
    runtime = SubscriberRuntime(sim, _NoNetwork(), "sub", Process(sim, "root"))
    node = Process(sim, "home")
    for filter_ in filters:
        subscription = Subscription(filter_, BIB_EVENT_CLASS)
        runtime.subscribe(subscription)
        runtime.receive(AcceptedAt(node, subscription.subscription_id, filter_), node)
    return runtime, node


def _matches_by_definition(filter_, event):
    """``Filter.matches`` spelled as Definition 1: one
    ``AttributeConstraint.matches`` call per constraint.  The sweep's
    ``definition`` side scans with it, so the gate on the engine does
    not move when the production scan gets faster."""
    if filter_.matches_nothing:
        return False
    properties = _properties_of(event)
    for constraint in filter_.constraints:
        if not constraint.matches(properties):
            return False
    return True


def test_stage0_break_even_sweep(monkeypatch):
    """Stage 0 as a scan and as one engine call, through the real
    ``SubscriberRuntime.receive``, on the bibliographic workload of the
    ``*_bib`` end-to-end workloads.

    *Pre-filtered* traffic is what a home node sends (every envelope
    matches at least one filter of the home: stage-0 MR is 0.997 on
    ``mp_bib``); *unfiltered* traffic is the whole feed, where a scanned
    filter usually fails on its first constraint.  Each side is forced
    on every home size — the engine below the break-even, the scan above
    it, by moving the constant ``_attach`` reads — so the sweep shows
    where they cross; production chooses by ``len(states)``.  A third
    side, ``definition``, scans with ``AttributeConstraint.matches`` per
    constraint (what ``Filter.matches`` did before it read the event's
    dict itself).  Gates, at 25 states (the ``mp_bib`` home) on
    pre-filtered traffic: one engine match is >= 2x a 25-filter
    definitional scan, which holds the engine's own cost where it was,
    and the engine is ahead of the production scan, which is what keeps
    such a home on the engine.  The rows are the artifact
    (``benchmarks/results/stage0_break_even.json``).
    """
    config = ScenarioConfig()
    rng = random.Random(20)
    universe = BibliographicWorkload(
        rng,
        n_years=config.n_years,
        n_conferences=config.n_conferences,
        n_authors=config.n_authors,
        n_records=config.n_records,
        author_exponent=config.author_exponent,
        record_exponent=config.record_exponent,
        sibling_rate=config.sibling_rate,
    )
    envelopes, repeats = 2000, 5
    production_matches = Filter.matches
    rows = []
    for states in (1, 2, 3, 4, 5, 6, 8, 12, 16, 25, 50):
        records = [universe.sample_record(rng) for _ in range(states)]
        filters = [universe.subscription_for(record) for record in records]
        traffic = {
            "prefiltered": [rng.choice(records) for _ in range(envelopes)],
            "unfiltered": [universe.sample_record(rng) for _ in range(envelopes)],
        }
        for name, published in traffic.items():
            messages = [
                Publish(marshal(record, class_name=BIB_EVENT_CLASS, event_id=("feed", seq)))
                for seq, record in enumerate(published)
            ]
            row = {"traffic": name, "states": states}
            for side, scan_max, matches in (
                ("scan", states, production_matches),
                ("engine", 0, production_matches),
                ("definition", states, _matches_by_definition),
            ):
                # The runtime builds the home it would build in
                # production, were this the break-even.
                monkeypatch.setattr(subscriber, "STAGE0_SCAN_MAX", scan_max)
                monkeypatch.setattr(Filter, "matches", matches)
                runtime, node = _stage0_home(filters)
                assert (runtime._by_home[node].engine is None) == (side != "engine")
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    for message in messages:
                        runtime.receive(message, node)
                    best = min(best, time.perf_counter() - start)
                row[f"{side}_us"] = round(best / envelopes * 1e6, 3)
                row[f"{side}_delivered"] = runtime.counters.events_delivered
            assert (
                row["scan_delivered"]
                == row["engine_delivered"]
                == row["definition_delivered"]
            )
            row["scan_over_engine"] = round(row["scan_us"] / row["engine_us"], 3)
            row["definition_over_engine"] = round(
                row["definition_us"] / row["engine_us"], 3
            )
            row["production"] = "scan" if states <= STAGE0_SCAN_MAX else "engine"
            rows.append(row)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "stage0_break_even.json"), "w") as out:
        json.dump(
            {
                "benchmark": "stage0_break_even",
                "unit": "us per envelope through SubscriberRuntime.receive, best of repeats",
                "envelopes": envelopes,
                "repeats": repeats,
                "engine": DEFAULT_ENGINE,
                "STAGE0_SCAN_MAX": STAGE0_SCAN_MAX,
                "rows": rows,
            },
            out,
            indent=1,
        )
        out.write("\n")
    (gate,) = [
        row for row in rows if row["traffic"] == "prefiltered" and row["states"] == 25
    ]
    assert gate["definition_over_engine"] >= 2.0, (
        f"one engine match must be >=2x a 25-filter definitional scan, got {gate}"
    )
    assert gate["scan_over_engine"] > 1.0, (
        f"a 25-state home must be cheaper on the engine than scanned, got {gate}"
    )
