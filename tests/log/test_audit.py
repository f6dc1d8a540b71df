"""Unit tests for the exactly-once audit verifier.

The verifier is exercised against hand-built logs and traces so each
verdict (clean, gap, duplicate, excused-by-fault-window) is pinned in
isolation; the flows sweep (benchmarks/bench_flows.py) and the SIGKILL
test (tests/runtime/test_multiprocess.py) exercise it against real
runs."""

from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.filters.filter import Filter
from repro.filters.parser import parse_filter
from repro.log import AuditSubscription, EventLog, verify_exactly_once
from repro.obs.tracing import SUBSCRIBER_STAGE, EventTracer
from repro.overlay.messages import Publish


def build_log(count, symbol="Foo"):
    log = EventLog()
    for seq in range(count):
        log.append(
            Publish(
                Envelope(
                    metadata=PropertyEvent(
                        {"class": "Quote", "symbol": symbol, "price": float(seq)}
                    ),
                    payload=b"",
                    published_at=float(seq),
                    event_id=("p", seq),
                )
            ),
            time=float(seq),
        )
    return log


def deliver(tracer, subscriber, event_id, time, delivered=1):
    tracer.span(
        time,
        "deliver",
        subscriber,
        SUBSCRIBER_STAGE,
        trace_id=event_id,
        details=(("delivered", delivered),),
    )


def audit(log, tracer, windows=(), filter=None):
    subscription = AuditSubscription("alice", filter or Filter.top())
    return verify_exactly_once(log, tracer, [subscription], fault_windows=windows)


def test_clean_when_every_record_delivered_once():
    log = build_log(5)
    tracer = EventTracer(enabled=True)
    for seq in range(5):
        deliver(tracer, "alice", ("p", seq), float(seq) + 0.1)
    report = audit(log, tracer)
    assert report.clean
    assert report.expected == 5
    assert report.delivered == 5
    assert report.findings == []
    assert "CLEAN" in report.render()


def test_missing_delivery_is_a_gap():
    log = build_log(3)
    tracer = EventTracer(enabled=True)
    deliver(tracer, "alice", ("p", 0), 0.1)
    deliver(tracer, "alice", ("p", 2), 2.1)
    report = audit(log, tracer)
    assert not report.clean
    assert [f.kind for f in report.violations] == ["gap"]
    assert report.gaps[0].event_id == ("p", 1)
    assert "VIOLATED" in report.render()


def test_double_delivery_is_a_duplicate():
    log = build_log(2)
    tracer = EventTracer(enabled=True)
    deliver(tracer, "alice", ("p", 0), 0.1)
    deliver(tracer, "alice", ("p", 1), 1.1)
    deliver(tracer, "alice", ("p", 1), 1.2)
    report = audit(log, tracer)
    assert [f.kind for f in report.violations] == ["duplicate"]
    assert report.duplicates[0].copies == 2


def test_filtered_spans_do_not_count_as_copies():
    log = build_log(1)
    tracer = EventTracer(enabled=True)
    # The envelope arrived but the exact filter rejected it: delivered=0.
    deliver(tracer, "alice", ("p", 0), 0.1, delivered=0)
    report = audit(log, tracer)
    assert report.delivered == 0
    assert [f.kind for f in report.findings] == ["gap"]


def test_fault_window_excuses_but_does_not_hide():
    log = build_log(4)
    tracer = EventTracer(enabled=True)
    deliver(tracer, "alice", ("p", 0), 0.1)
    # (p, 1): published at t=1 inside the window -> excused gap.
    # (p, 2): duplicate whose second copy lands inside the window.
    deliver(tracer, "alice", ("p", 2), 2.1)
    deliver(tracer, "alice", ("p", 2), 2.2)
    # (p, 3): gap entirely outside the window -> real violation.
    report = audit(log, tracer, windows=((0.9, 2.5),))
    assert not report.clean
    assert len(report.findings) == 3
    assert len(report.excused) == 2
    assert [f.event_id for f in report.violations] == [("p", 3)]
    rendered = report.render()
    assert "[fault window]" in rendered


def test_filter_scope():
    log = build_log(4)
    tracer = EventTracer(enabled=True)
    deliver(tracer, "alice", ("p", 3), 3.1)
    report = audit(log, tracer, filter=parse_filter("price >= 3.0"))
    assert report.clean
    assert report.expected == 1


def test_deliveries_to_other_subscribers_do_not_count():
    log = build_log(1)
    tracer = EventTracer(enabled=True)
    deliver(tracer, "bob", ("p", 0), 0.1)
    report = audit(log, tracer)
    assert not report.clean
    assert [f.kind for f in report.findings] == ["gap"]
