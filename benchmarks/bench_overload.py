"""Acceptance gates for the flow-control / overload subsystem.

Four gates keep backpressure honest:

1. **Bounded memory**: at 10x saturation with flow control on, the peak
   number of events queued anywhere in the system (broker inbound and
   outbound queues plus the publisher's credit-blocked local queue) must
   stay at or below the sum of the configured queue capacities — the
   memory bound the subsystem exists to enforce.
2. **Do no harm**: below saturation (0.5x) flow control must be
   invisible — zero events shed anywhere, zero rate-limit refusals, and
   goodput identical to the uncontrolled baseline.
3. **Graceful degradation**: at and past saturation, SLO-bounded goodput
   with flow control must be at least the uncontrolled baseline's — a
   system that sheds at the edge must beat one that queues without
   bound and blows its latency budget.
4. **Determinism**: two same-seed 10x runs with tracing on must produce
   byte-identical shed/credit/overload span dumps and equal shed counts.
"""

from dataclasses import replace

from repro.experiments.overload import (
    OverloadConfig,
    queue_capacity_budget,
    run_overload,
    run_point,
)
from repro.overlay.invariants import credit_violations

CONFIG = OverloadConfig()
SATURATION_MULTIPLIER = 10.0


def test_bounded_memory_gate(report):
    """Gate: controlled peak queued <= sum of configured capacities."""
    budget = queue_capacity_budget(CONFIG)
    point = run_point(CONFIG, SATURATION_MULTIPLIER, controlled=True)
    report()
    report("=== Bounded memory gate (flow on, 10x saturation) ===")
    report(f"offered            : {point.offered}")
    report(f"accepted           : {point.accepted}")
    report(f"shed (publisher)   : {point.shed_publisher}")
    report(f"shed (brokers)     : {point.shed_brokers}")
    report(f"peak queued        : {point.peak_queued}")
    report(f"capacity budget    : {budget}")
    assert point.peak_queued <= budget, (
        f"peak queued {point.peak_queued} exceeds the configured capacity "
        f"budget {budget} — a bounded queue is leaking"
    )
    assert point.offered > point.accepted, (
        "a 10x overload run accepted every offered event — backpressure "
        "never engaged"
    )
    # After the drain tail the system must not be sitting on stuck
    # events: queues drain once the open-loop source stops.
    assert point.final_queued <= CONFIG.flow.link_window, (
        f"{point.final_queued} events still queued after the drain tail — "
        "the credit loop deadlocked"
    )
    # ... and no link parks events on credits it could spend.
    assert credit_violations(point.system) == []


def test_no_shedding_below_saturation_gate(report):
    """Gate: at 0.5x offered load, flow control is invisible."""
    controlled = run_point(CONFIG, 0.5, controlled=True)
    baseline = run_point(CONFIG, 0.5, controlled=False)
    report()
    report("=== Do-no-harm gate (0.5x saturation) ===")
    report(f"controlled: accepted={controlled.accepted}/{controlled.offered} "
           f"goodput={controlled.goodput:.1f}/s shed={controlled.shed_total} "
           f"rate_limited={controlled.rate_limited}")
    report(f"baseline  : accepted={baseline.accepted}/{baseline.offered} "
           f"goodput={baseline.goodput:.1f}/s")
    assert controlled.shed_total == 0, (
        f"{controlled.shed_total} events shed below saturation"
    )
    assert controlled.rate_limited == 0, (
        f"{controlled.rate_limited} publishes rate-limited below saturation "
        "(no rate_limit is configured)"
    )
    assert controlled.accepted == controlled.offered, (
        "publishes refused below saturation"
    )
    assert controlled.good_deliveries == baseline.good_deliveries, (
        "flow control changed delivery outcomes below saturation"
    )
    # Invisible also means conserved: after the tail every credit is
    # back in its window.
    assert credit_violations(controlled.system, quiescent=True) == []


def test_goodput_under_overload_gate(report):
    """Gate: SLO goodput with flow >= uncontrolled, at and past saturation."""
    report()
    report("=== Graceful degradation gate ===")
    for multiplier in (1.0, 2.0, SATURATION_MULTIPLIER):
        controlled = run_point(CONFIG, multiplier, controlled=True)
        baseline = run_point(CONFIG, multiplier, controlled=False)
        report(f"{multiplier:g}x: controlled goodput {controlled.goodput:.1f}/s "
               f"(p50 {controlled.p50_latency:.3f}s), uncontrolled "
               f"{baseline.goodput:.1f}/s (p50 {baseline.p50_latency:.3f}s)")
        assert controlled.goodput >= baseline.goodput, (
            f"at {multiplier:g}x saturation, flow control degraded goodput: "
            f"{controlled.goodput:.1f}/s < {baseline.goodput:.1f}/s"
        )


def test_flow_determinism_gate(report):
    """Gate: same seed => identical shed/credit/overload traces."""
    first = run_point(CONFIG, SATURATION_MULTIPLIER, controlled=True,
                      tracing=True)
    second = run_point(replace(CONFIG), SATURATION_MULTIPLIER,
                       controlled=True, tracing=True)

    kinds = ("shed", "credit-grant", "overload")
    dump_a = first.system.tracer.dump(kinds=kinds)
    dump_b = second.system.tracer.dump(kinds=kinds)
    report()
    report("=== Flow determinism gate (10x saturation, flow on) ===")
    report(f"flow spans: {len(first.system.tracer.kinds(*kinds))}, "
           f"dump size {len(dump_a)} bytes")
    report(f"shed counts: {first.shed_total} vs {second.shed_total}")
    assert first.shed_total == second.shed_total, (
        "same-seed runs shed different event counts"
    )
    assert dump_a == dump_b, "same-seed flow-control traces differ"
    assert first.shed_total > 0, (
        "a traced 10x run shed nothing — the gate is vacuous"
    )


def test_overload_sweep_report(report, once, benchmark):
    """Regenerate (and time) the full overload sweep table."""
    from repro.experiments.overload import render

    result = once(benchmark, run_overload, CONFIG)
    report()
    report(render(result))
