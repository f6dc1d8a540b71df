"""A traced run executes the code an untraced run executes.

The paper's evaluation counts filters, received and matched events at
each node around the one matching loop (§5.3): a measurement that does
not change what it measures.  Ours has to hold to the same — every gate
that reads spans (the pipeline goldens, byte identity, chaos, replay,
flows, ``bench_tracing``) stands for the untraced runs the benchmarks
and every deployment take only if switching the tracer on moves nothing
but the span list: same kernel steps, same bytes on every link, same
counters at every broker and subscriber, same deliveries at the same
times.
"""

import itertools

import pytest

import repro.core.subscription as subscription_module
from tests.integration.test_engine_swap import run, run_churn

ENGINES = {
    "default": dict(),
    "index+cache": dict(engine="index", cache=True),
    "table": dict(engine="table"),
}


def observe(monkeypatch, scenario, **options):
    # Subscription ids come from a process-wide counter: both runs
    # start it at the same id.
    monkeypatch.setattr(subscription_module, "_subscription_ids", itertools.count(1))
    system, traces = scenario(5, **options)[:2]
    return system, {
        "kernel steps": system.sim.processed_events,
        "time": system.sim.now,
        "messages": system.network.stats.total_messages,
        "bytes": system.network.stats.total_bytes,
        "links": sorted(
            (link.src.name, link.dst.name, link.messages, link.bytes)
            for link in system.network._links.values()
        ),
        "counters": [
            (process.name, counters.snapshot(), counters.sheds_by_reason)
            for process in system.hierarchy.nodes() + system.subscribers
            for counters in [process.counters]
        ],
        "deliveries": traces,
    }


@pytest.mark.parametrize("scenario", [run, run_churn], ids=["static", "churn"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_tracing_moves_nothing_but_the_span_list(monkeypatch, engine, scenario):
    options = ENGINES[engine]
    untraced, expected = observe(monkeypatch, scenario, **options)
    traced, observed = observe(monkeypatch, scenario, tracing=True, **options)
    assert len(untraced.tracer) == 0 and traced.tracer.kinds("hop")
    assert any(expected["deliveries"].values())
    for name in expected:
        assert observed[name] == expected[name], name
