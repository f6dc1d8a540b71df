"""Control-plane spans: the observable protocol events of a traced run
(placement, covering redirects, lease expiry, durable reconnects), on
the one recorder beside the event paths."""

import sys

from repro.core.engine import MultiStageEventSystem
from repro.filters.filter import Filter
from tests.overlay.test_aggregation import BROAD, NARROW, make_system, pinned_subscribe


class Quote:
    def __init__(self, symbol):
        self._symbol = symbol

    def get_symbol(self):
        return self._symbol


def traced_system():
    system = MultiStageEventSystem(stage_sizes=(3, 1), seed=51, tracing=True)
    system.advertise("Quote", schema=("class", "symbol"))
    return system


def test_advertisements_are_traced_per_node():
    system = traced_system()
    system.drain()
    records = system.tracer.kinds("advertise")
    assert len(records) == len(system.hierarchy.nodes())
    assert all(record.trace_id is None for record in records)


def test_join_path_is_traced():
    system = traced_system()
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    system.drain()
    inserts = system.tracer.kinds("subscriber-insert")
    assert len(inserts) == 1
    joins = system.tracer.kinds("joined")
    assert len(joins) == 1
    assert joins[0].detail("home").startswith("N1.")


def test_covering_redirects_are_traced():
    system = traced_system()
    for i in range(2):
        subscriber = system.create_subscriber()
        system.subscribe(subscriber, 'class = "Quote" and symbol = "HOT"')
        system.drain()
    # The second similar subscription follows a stored covering filter.
    assert len(system.tracer.kinds("route-covering")) >= 1


def test_lease_expiry_is_traced():
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=52, ttl=5.0, tracing=True)
    system.advertise("Quote", schema=("class", "symbol"))
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    system.drain()
    system.start_maintenance()
    subscriber.stop_maintenance()
    system.run_for(5.0 * 12)
    assert len(system.tracer.kinds("lease-expired")) >= 1
    system.stop_maintenance()


def test_disconnect_reconnect_traced():
    system = traced_system()
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    system.drain()
    subscriber.disconnect(durable=True)
    system.drain()
    subscriber.reconnect()
    system.drain()
    assert len(system.tracer.kinds("disconnect")) == 1
    reconnects = system.tracer.kinds("reconnect")
    assert len(reconnects) == 1
    assert reconnects[0].detail("replayed") == 0


def test_wildcard_attachment_is_traced():
    system = make_system(tracing=True)
    subscriber = system.create_subscriber()
    # symbol, which only stage 1 uses, is left unconstrained: the
    # subscription attaches one stage above.
    system.subscribe(subscriber, BROAD, event_class="Quote")
    system.drain()
    (attach,) = system.tracer.kinds("wildcard-attach")
    assert attach.detail("attribute") == "symbol"
    assert attach.stage == attach.detail("target_stage") == 2
    (join,) = system.tracer.kinds("joined")
    assert join.detail("home") == attach.node


def test_aggregation_decisions_are_traced():
    """One span per suppression, demotion and uncover re-propagation —
    the counters say how many, the spans say which filter under which
    cover."""
    system = make_system(tracing=True)
    _, _, home = pinned_subscribe(system, "narrow", NARROW)
    broad_subscriber, broad, _ = pinned_subscribe(system, "broad", BROAD)
    pinned_subscribe(system, "narrower", NARROW + " and price < 5")
    broad_subscriber.unsubscribe(broad.subscription_id)
    system.drain()

    narrow_form = "(class, 'Quote', =) (price, 10, <)"
    broad_form = "(class, 'Quote', =) (price, 20, <)"
    tracer = system.tracer
    (demoted,) = tracer.kinds("propagation-demoted")
    assert (demoted.detail("filter"), demoted.detail("cover")) == (narrow_form, broad_form)
    (suppressed,) = tracer.kinds("propagation-suppressed")
    assert suppressed.detail("cover") == broad_form
    uncovered = tracer.kinds("uncover-repropagate")
    assert [span.detail("cover") for span in uncovered] == [broad_form]
    assert uncovered[0].detail("filter") == narrow_form
    for kind, counter in (
        ("propagation-suppressed", "propagations_suppressed"),
        ("uncover-repropagate", "uncover_repropagations"),
    ):
        assert len(tracer.kinds(kind)) == getattr(home.counters, counter)
    assert {span.node for span in tracer.kinds(
        "propagation-demoted", "propagation-suppressed", "uncover-repropagate"
    )} == {home.name}


def test_a_disabled_tracer_renders_no_filter(monkeypatch):
    """Span details are built behind the ``tracer.enabled`` guard: with
    tracing off, a subscribe / suppress / unsubscribe / lease-expiry
    round never renders a filter from the broker module."""
    rendered = []
    render = Filter.__str__

    def spying(filter_):
        caller = sys._getframe(1).f_code
        if caller.co_filename.endswith("overlay/node.py"):
            rendered.append(caller.co_name)
        return render(filter_)

    monkeypatch.setattr(Filter, "__str__", spying)
    for tracing in (True, False):
        del rendered[:]
        system = make_system(tracing=tracing)
        pinned_subscribe(system, "broad", BROAD)
        narrow_subscriber, narrow, home = pinned_subscribe(system, "narrow", NARROW)
        assert home.counters.propagations_suppressed == 1
        narrow_subscriber.unsubscribe(narrow.subscription_id)
        system.drain()
        system.start_maintenance()
        for subscriber in system.subscribers:
            subscriber.stop_maintenance()
        system.run_for(system.ttl * 4)
        system.stop_maintenance()
        assert len(home.table) == 0  # the broad lease ran out
        assert bool(rendered) == tracing, rendered
