"""Micro-benchmark: covering-index subsumption vs naive pairwise.

The broker control plane answers "is this filter covered?" and "which
filters does it cover?" on every uplink change.  Naively that is O(n)
full ``Filter.covers`` implication checks per query; the
:class:`~repro.filters.covering_index.CoveringIndex` prunes candidates
with equality buckets and bisected ordering bounds first.  This bench
measures both on the same clustered population and gates the speedup —
with a correctness assertion, because a fast wrong answer is worthless.

``test_placement_lookup_sweep`` measures the other place the index
answers ``covered_by``: Figure-5b placement at a broker above stage 1
(DESIGN §5), against the table scan it replaced.
"""

import json
import os
import random
import time

from repro.filters.covering_index import CoveringIndex
from repro.workloads.subscriptions import SubscriptionGenerator
from tests.overlay.placement_reference import strongest_covering_child
from tests.overlay.test_placement_count import SHAPES, SIZES, loaded_root

from .conftest import RESULTS_DIR

GENERATOR = SubscriptionGenerator(
    [("class", 5), ("category", 40), ("vendor", 200)],
    numeric_attribute="price",
)

POPULATION_SIZE = 5000
PROBE_COUNT = 80


def build_population(count, seed=23):
    rng = random.Random(seed)
    return GENERATOR.clustered_population(
        rng, cluster_count=count // 20, cluster_size=20
    )


def naive_covered_by(pool, probe):
    return [g for g in pool if g.covers(probe)]


def naive_covers_of(pool, probe):
    return [g for g in pool if probe.covers(g)]


def test_covering_index_speedup(report):
    """Acceptance gate: >=5x over naive pairwise at 5000 filters."""
    population = build_population(POPULATION_SIZE)
    assert len(population) == POPULATION_SIZE

    index = CoveringIndex()
    build_start = time.perf_counter()
    for filter_ in population:
        index.add(filter_)
    build_time = time.perf_counter() - build_start
    pool = list(index.filters())  # deduplicated stored set

    rng = random.Random(31)
    probes = rng.sample(population, PROBE_COUNT // 2) + build_population(
        PROBE_COUNT // 2, seed=47
    )[: PROBE_COUNT // 2]

    # Warm-up + correctness: the pruned answers must equal naive pairwise.
    for probe in probes[:10]:
        assert index.covered_by(probe) == naive_covered_by(pool, probe)
        assert index.covers_of(probe) == naive_covers_of(pool, probe)

    index.covers_checks = 0
    index_start = time.perf_counter()
    index_results = [
        (index.covered_by(probe), index.covers_of(probe)) for probe in probes
    ]
    index_time = time.perf_counter() - index_start
    checks = index.covers_checks

    naive_start = time.perf_counter()
    naive_results = [
        (naive_covered_by(pool, probe), naive_covers_of(pool, probe))
        for probe in probes
    ]
    naive_time = time.perf_counter() - naive_start

    assert index_results == naive_results
    naive_checks = 2 * len(pool) * len(probes)

    speedup = naive_time / index_time
    report()
    report(
        f"=== Covering index vs naive pairwise "
        f"({len(pool)} filters, {len(probes)} probes) ==="
    )
    report(
        f"build: {build_time * 1e3:.1f} ms; query: naive {naive_time * 1e3:.1f} ms, "
        f"indexed {index_time * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    report(
        f"pairwise covers checks: naive {naive_checks}, indexed {checks} "
        f"(pruning factor {naive_checks / max(1, checks):.0f}x)"
    )
    assert speedup >= 5.0, (
        f"covering index must be >=5x naive pairwise at "
        f"{POPULATION_SIZE} filters, got {speedup:.2f}x"
    )


def test_covering_index_at_section5_scale(report):
    """The control plane stays sub-linear at 10^4 stored filters.

    Naive pairwise covering at this size is too slow to time against in
    full, so correctness is spot-checked on a probe subset and the gate
    is absolute: the indexed queries must answer well under the naive
    engine's per-probe budget extrapolated from the 5000-filter gate.
    """
    population = build_population(10_000, seed=29)
    index = CoveringIndex()
    build_start = time.perf_counter()
    for filter_ in population:
        index.add(filter_)
    build_time = time.perf_counter() - build_start
    pool = list(index.filters())

    rng = random.Random(37)
    probes = rng.sample(population, 40)
    for probe in probes[:5]:  # spot-check against naive pairwise
        assert index.covered_by(probe) == naive_covered_by(pool, probe)
        assert index.covers_of(probe) == naive_covers_of(pool, probe)

    index.covers_checks = 0
    query_start = time.perf_counter()
    for probe in probes:
        index.covered_by(probe)
        index.covers_of(probe)
    query_time = time.perf_counter() - query_start
    checks = index.covers_checks
    naive_checks = 2 * len(pool) * len(probes)

    report()
    report(f"=== Covering index at 10^4 filters ({len(probes)} probes) ===")
    report(
        f"build: {build_time * 1e3:.1f} ms; query: {query_time * 1e3:.1f} ms "
        f"({query_time / len(probes) * 1e3:.2f} ms/probe); covers checks "
        f"{checks} vs naive {naive_checks} "
        f"(pruning factor {naive_checks / max(1, checks):.0f}x)"
    )
    assert checks < naive_checks / 10, (
        "candidate pruning must cut pairwise covers checks >=10x at 10^4 "
        f"filters, performed {checks} of {naive_checks}"
    )


def test_incremental_maximal_under_churn(report):
    """The maximal set stays exact across removals (uncover bookkeeping)."""
    population = build_population(1000, seed=5)
    index = CoveringIndex()
    for filter_ in population:
        index.add(filter_)
    pool = list(index.filters())

    rng = random.Random(9)
    removed = rng.sample(pool, len(pool) // 3)
    churn_start = time.perf_counter()
    for filter_ in removed:
        index.discard(filter_)
    churn_time = time.perf_counter() - churn_start

    removed_set = set(removed)
    live = [f for f in pool if f not in removed_set]
    expected = [
        f
        for f in live
        if not any(g.covers(f) and not f.covers(g) for g in live)
    ]
    assert index.maximal() == expected
    report()
    report(
        f"=== Incremental maximal set under churn ===\n"
        f"removed {len(removed)}/{len(pool)} filters in "
        f"{churn_time * 1e3:.1f} ms; maximal set exact "
        f"({len(expected)} filters)"
    )


def test_placement_lookup_sweep():
    """Figure-5b placement as the table scan and as the index fold, at a
    root holding 0, 4, 40, 400 and 4 000 routed forms (the set-up of
    ``tests/overlay/test_placement_count.py``: ``sim_match_10k``'s root
    is the 40-form row, an empty root what any request costs before
    forms arrive).  Both sides answer the same requests at the same node
    and must name the same child.  The gates: the index wins by >= 10x
    at 4 000 forms, and verifies at most 2 forms per request in every
    row.  The rows are the artifact
    (``benchmarks/results/placement_lookup.json``).
    """
    repeats = 5
    rows = []
    for shape in SHAPES:
        for size in (0, 4) + SIZES:
            root, _, requests = loaded_root(shape, size, random.Random(size))
            sides = {
                "scan": lambda request: strongest_covering_child(root, request),
                "index": root._strongest_covering_child,
            }
            row = {"shape": shape, "forms": size, "requests": len(requests)}
            chosen = {}
            root.placement_index.covers_checks = 0
            for side, place in sides.items():
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    chosen[side] = [place(request) for request in requests]
                    best = min(best, time.perf_counter() - start)
                row[f"{side}_us"] = round(best / len(requests) * 1e6, 3)
            assert all(new is old for new, old in zip(chosen["index"], chosen["scan"]))
            row["index_covers_checks_per_request"] = round(
                root.placement_index.covers_checks / (repeats * len(requests)), 2
            )
            row["scan_over_index"] = round(row["scan_us"] / row["index_us"], 2)
            rows.append(row)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "placement_lookup.json"), "w") as out:
        json.dump(
            {
                "benchmark": "placement_lookup",
                "unit": "us per _strongest_covering_child call, best of repeats",
                "repeats": repeats,
                "rows": rows,
            },
            out,
            indent=1,
        )
        out.write("\n")
    for row in rows:
        assert row["index_covers_checks_per_request"] <= 2, row
        if row["forms"] == 4000:
            assert row["scan_over_index"] >= 10.0, (
                f"index placement must be >=10x the table scan at 4000 forms, got {row}"
            )
