"""Whole-trace reports group the spans once.

``incomplete_deliveries``, the hop-latency histograms and the chaos
report's observability section used to ask ``reconstruct(id)`` — a scan
of every span — once per event id: quadratic in the length of the run
(9 s to check a 4 000-event traced run that takes 0.6 s to run).  They
now read :meth:`EventTracer.reconstruct_all`; this pins that they say
what the per-id form said, on the chaos seed, without a per-id scan.
"""

import pytest

from repro.experiments.chaos import ChaosConfig, render_observability, run_chaos
from repro.metrics.report import render_stage_latency_histograms
from repro.obs.tracing import EventTracer


def whole_trace_reports(result):
    tracer = result.tracer
    return (
        tracer.incomplete_deliveries(),
        render_stage_latency_histograms(tracer),
        render_observability(result),
    )


def test_whole_trace_reports_equal_the_per_event_form_without_its_scans(monkeypatch):
    result = run_chaos(ChaosConfig(tracing=True))
    tracer = result.tracer
    per_event = [tracer.reconstruct(trace_id) for trace_id in tracer.event_ids()]
    assert list(tracer.reconstruct_all()) == per_event
    delivered = [path for paths in per_event for path in paths if path.delivered]
    assert delivered and all(path.complete for path in delivered)

    with monkeypatch.context() as patch:
        patch.setattr(EventTracer, "reconstruct_all", lambda self: iter(per_event))
        before = whole_trace_reports(result)

    def no_scan(self, trace_id):
        pytest.fail(f"per-event scan for {trace_id}")

    monkeypatch.setattr(EventTracer, "for_event", no_scan)
    assert whole_trace_reports(result) == before
    assert "Reconstructed event path" in before[2]

