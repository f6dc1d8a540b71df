"""Figure-5b placement: the covering-index fold against the table scan.

One stage-2 broker (with a parent, so the uplink aggregation runs beside
it) and one stage-3 root, each with three real broker children, are
driven directly through ``receive`` with generated control traffic:
``req-Insert`` / ``Withdraw`` / ``Renewal`` from the children, wildcard
subscriptions that attach a *subscriber* to the node (entries with no
broker destination, alone or beside one), ``Unsubscribe``, clock ticks
followed by the lease purge, and crash + restart.  The filters are equal
across children, mutually covering without being equal, strictly
nested, incomparable, and of the kinds the index keeps in its catch-all
(``!=``, prefix, a two-bound interval, a NaN bound).

After every step the node's ``_strongest_covering_child`` must return
the very object the scan of ``placement_reference.py`` returns, for
every probe, and the index must list the table's filters in the table's
order — the lock-step that makes the fold over ``covered_by`` the fold
over ``entries()`` (DESIGN §5).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.advertisement import Advertisement
from repro.core.stages import AttributeStageAssociation
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import ALL, LT
from repro.filters.parser import parse_filter
from repro.overlay.config import BrokerConfig
from repro.overlay.invariants import soft_state_violations
from repro.overlay.messages import (
    Advertise,
    Renewal,
    ReqInsert,
    SubscriptionRequest,
    Unsubscribe,
    Withdraw,
)
from repro.overlay.node import BrokerNode
from repro.sim.kernel import Process, Simulator

from tests.overlay.placement_reference import strongest_covering_child
from tests.overlay.test_stage0_differential import _Net

SCHEMA = ("a", "b", "c", "d")
#: Stage 1 filters on a, b, c; stage 2 on a, b; stage 3 on a.
ASSOCIATION = AttributeStageAssociation.uniform(SCHEMA, stages=4)
EVENT_CLASS = "T"
TTL = 10.0
CHILDREN = 3
SUBSCRIBERS = 3


def _with_all(text, *attributes):
    """``text`` plus explicit wildcards: the standard form a subscriber
    sends, and a filter that covers and is covered by ``text`` itself."""
    return Filter(
        parse_filter(text).constraints
        + tuple(AttributeConstraint(attribute, ALL) for attribute in attributes)
    )


#: What the children propagate and what the node stores for an attached
#: subscriber (forms over a, b — or over a alone, as at a root).
FORMS = (
    parse_filter("a = 1"),
    _with_all("a = 1", "b"),  # mutually covering with the one above
    parse_filter("a = 1 and b = 2"),
    parse_filter("a = 1 and b < 5"),
    parse_filter("a = 1 and b < 3"),
    parse_filter("a = 2"),
    parse_filter("a = 2 and b = 2"),
    parse_filter("a < 4"),
    parse_filter("a <= 4"),
    parse_filter("b = 2"),
    parse_filter("a != 3"),
    parse_filter('b prefix "x"'),
    parse_filter("a >= 1 and a <= 3"),
    Filter([AttributeConstraint("b", LT, float("nan"))]),
    Filter([]),
)

#: Standard-form subscriptions: constrained down to the stage-1
#: attribute (placed or sent to a random child), wildcarded at ``c``
#: (attach at stage 2) or at ``b`` (attach at stage 3).
REQUESTS = (
    _with_all("a = 1 and b = 2 and c = 3", "d"),
    _with_all("a = 1 and b = 4 and c = 3", "d"),
    _with_all("a = 2 and b = 2 and c = 1", "d"),
    _with_all("a = 3 and b = 2 and c = 1", "d"),
    _with_all('a = 1 and b prefix "xy" and c = 1', "d"),
    _with_all("a = 1 and b = 2", "c", "d"),
    _with_all("a = 1 and b < 3", "c", "d"),
    _with_all("a = 2 and b = 2", "c", "d"),
    _with_all("a = 1", "b", "c", "d"),
    _with_all("a = 2", "b", "c", "d"),
    _with_all("a < 4", "b", "c", "d"),
)

PROBES = REQUESTS + FORMS


class _Harness:
    def __init__(self, stage, with_parent):
        self.sim = Simulator()
        net = _Net()
        config = BrokerConfig(ttl=TTL)
        self.node = BrokerNode(self.sim, net, "node", stage, config)
        if with_parent:
            BrokerNode(self.sim, net, "parent", stage + 1, config).attach_child(self.node)
        self.children = [
            BrokerNode(self.sim, net, f"child-{i}", stage - 1, config)
            for i in range(CHILDREN)
        ]
        for child in self.children:
            self.node.attach_child(child)
        self.subscribers = [Process(self.sim, f"sub-{i}") for i in range(SUBSCRIBERS)]
        self.requests = 0
        # Once: advertisements survive a crash.
        self.node.receive(
            Advertise(Advertisement(EVENT_CLASS, ASSOCIATION)), self.node
        )

    def step(self, step):
        kind, node = step[0], self.node
        if kind == "insert":
            child = self.children[step[1]]
            node.receive(ReqInsert(FORMS[step[2]], EVENT_CLASS, child), child)
        elif kind == "withdraw":
            child = self.children[step[1]]
            node.receive(Withdraw(FORMS[step[2]], EVENT_CLASS, child), child)
        elif kind == "renew":
            child = self.children[step[1]]
            items = tuple((FORMS[i], EVENT_CLASS) for i in step[2])
            node.receive(Renewal(items), child)
        elif kind == "subscribe":
            subscriber = self.subscribers[step[1]]
            self.requests += 1
            node.receive(
                SubscriptionRequest(
                    REQUESTS[step[2]], EVENT_CLASS, subscriber, self.requests
                ),
                subscriber,
            )
        elif kind == "unsubscribe":
            subscriber = self.subscribers[step[1]]
            node.receive(Unsubscribe(FORMS[step[2]], subscriber), subscriber)
        elif kind == "expire":
            # Everything not renewed for 3 x TTL goes at the next purge.
            self.sim.run(until=self.sim.now + step[1])
            node._purge_task()
        else:
            node.crash()
            if step[1]:
                node.crash()  # a second kill of a dead broker: a no-op
            assert soft_state_violations(node) == []
            node.restart()

    def check(self):
        node = self.node
        assert list(node.placement_index.filters()) == list(node.table.filters())
        for probe in PROBES:
            assert node._strongest_covering_child(probe) is strongest_covering_child(
                node, probe
            ), str(probe)


_child = st.integers(0, CHILDREN - 1)
_subscriber = st.integers(0, SUBSCRIBERS - 1)
_form = st.integers(0, len(FORMS) - 1)
_step = st.one_of(
    st.tuples(st.just("insert"), _child, _form),
    st.tuples(st.just("insert"), _child, _form),
    st.tuples(st.just("insert"), _child, _form),
    st.tuples(st.just("withdraw"), _child, _form),
    st.tuples(st.just("withdraw"), _child, _form),
    st.tuples(st.just("renew"), _child, st.lists(_form, min_size=1, max_size=4)),
    st.tuples(st.just("subscribe"), _subscriber, st.integers(0, len(REQUESTS) - 1)),
    st.tuples(st.just("subscribe"), _subscriber, st.integers(0, len(REQUESTS) - 1)),
    st.tuples(st.just("unsubscribe"), _subscriber, _form),
    st.tuples(st.just("expire"), st.sampled_from((TTL, 2 * TTL, 3 * TTL))),
    st.tuples(st.just("crash"), st.booleans()),
)


@given(
    shape=st.sampled_from(((2, True), (3, False))),
    steps=st.lists(_step, min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_the_index_fold_picks_the_child_the_scan_picks(shape, steps):
    harness = _Harness(*shape)
    harness.check()
    for step in steps:
        harness.step(step)
        harness.check()


def test_the_steps_reach_what_they_are_meant_to():
    """The generated vocabulary does what the docstring says it does:
    subscriber-only entries, entries shared by a subscriber and a child,
    redirects to a placed child, purges that empty the table."""
    harness = _Harness(2, True)
    node, (first, second, _) = harness.node, harness.children
    harness.step(("subscribe", 0, 5))  # c wildcarded: attaches here
    stored = parse_filter("a = 1 and b = 2")
    assert node.table.destinations_for(stored) == (harness.subscribers[0],)
    assert node._strongest_covering_child(REQUESTS[0]) is None
    harness.step(("insert", 1, 2))  # the same form from a child
    assert node.table.destinations_for(stored) == (harness.subscribers[0], second)
    harness.step(("insert", 0, 0))  # a weaker cover from another child
    assert node._strongest_covering_child(REQUESTS[0]) is second
    assert node._strongest_covering_child(REQUESTS[1]) is first
    harness.check()
    harness.step(("expire", 3 * TTL))
    assert len(node.table) == 0 and len(node.placement_index) == 0
    harness.check()
