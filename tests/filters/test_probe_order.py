"""The compiled engine's probe order never changes a match result.

:class:`CompiledMatchEngine` probes attributes most-selective first and
keeps a free mask ``live & ~constrained`` per attribute beside the
constrained one.  The order is a cost decision only: a state machine
drives the engine under its computed order, that order reversed and a
shuffle of it through random ``insert`` / ``remove`` /
``remove_destination`` / ``match`` / ``match_batch`` interleavings, and
the Figure-6 :class:`FilterTable` arbitrates every result.  Mutations
between matches are what would show a free mask left stale by a live set
that moved (a filter inserted after a match, constrained on none of the
attributes already compiled, must still match).  Each engine's probes
for one event never exceed the indexed attributes that event carries.
"""

import random

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.events.base import PropertyEvent
from repro.filters.compiled import CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import ALL, EQ, EXISTS, GE, GT, LE, LT, NE, PREFIX
from repro.filters.table import FilterTable

ATTRIBUTES = ["a", "b", "c"]
DESTINATIONS = ["n1", "n2", "n3"]

#: Operands and probe values, few enough that events hit operands:
#: ``True`` beside ``1`` (different buckets), ``1`` beside ``1.0`` (one
#: bucket), NaN (never indexed), strings.
values = st.sampled_from([0, 1, 1.0, 2.5, True, float("nan"), "x", "y"])


@st.composite
def groups(draw, attribute):
    """One attribute's constraints in a filter: an indexed single
    constraint, a residual one, or an interval (a residual group)."""
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 0:
        return [AttributeConstraint(attribute, draw(st.sampled_from([EXISTS, ALL])))]
    if kind == 1:
        return [AttributeConstraint(attribute, draw(st.sampled_from([NE, PREFIX])), "x")]
    if kind == 2:
        low, high = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2)))
        return [
            AttributeConstraint(attribute, GE, low),
            AttributeConstraint(attribute, LE, high),
        ]
    operator = EQ if kind < 5 else draw(st.sampled_from([LT, LE, GT, GE]))
    return [AttributeConstraint(attribute, operator, draw(values))]


@st.composite
def filters(draw):
    attributes = draw(
        st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3, unique=True)
    )
    return Filter([c for attribute in attributes for c in draw(groups(attribute))])


events = st.dictionaries(st.sampled_from(ATTRIBUTES), values, max_size=3)


class ReversedOrder(CompiledMatchEngine):
    def _probe_order(self):
        return super()._probe_order()[::-1]


class ShuffledOrder(CompiledMatchEngine):
    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def _probe_order(self):
        order = super()._probe_order()
        self._rng.shuffle(order)
        return order


class ProbeOrderMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.oracle = FilterTable()
        self.engines = [
            CompiledMatchEngine(),
            ReversedOrder(),
            ShuffledOrder(0),
        ]
        self.live = []

    def _all(self):
        return [self.oracle] + self.engines

    @rule(filter_=filters(), destination=st.sampled_from(DESTINATIONS))
    def insert(self, filter_, destination):
        for engine in self._all():
            engine.insert(filter_, destination)
        if (filter_, destination) not in self.live:
            self.live.append((filter_, destination))

    @rule(destination=st.sampled_from(DESTINATIONS))
    def insert_wildcard_only(self, destination):
        """Constrained on no attribute: it rides through every mask."""
        self.insert(Filter([AttributeConstraint("a", ALL)]), destination)

    @rule(data=st.data())
    def remove_live_pair(self, data):
        if not self.live:
            return
        pair = data.draw(st.sampled_from(self.live), label="live pair")
        assert {engine.remove(*pair) for engine in self._all()} == {True}
        self.live.remove(pair)

    @rule(destination=st.sampled_from(DESTINATIONS))
    def remove_destination(self, destination):
        assert len({engine.remove_destination(destination) for engine in self._all()}) == 1
        self.live = [pair for pair in self.live if pair[1] != destination]

    @rule(event=events, wrapped=st.booleans())
    def match(self, event, wrapped):
        expected = self.oracle.match(event)
        probe = PropertyEvent(event) if wrapped else event
        for engine in self.engines:
            before = engine.evaluations - engine.residual_evaluations
            assert engine.match(probe) == expected, f"{engine!r} on {event}"
            probes = engine.evaluations - engine.residual_evaluations - before
            assert probes <= len(set(event) & set(engine._attributes))

    @rule(batch=st.lists(events, min_size=1, max_size=4))
    def match_batch(self, batch):
        expected = [self.oracle.match(event) for event in batch]
        for engine in self.engines:
            assert engine.match_batch(batch) == expected, f"{engine!r} on {batch}"

    @invariant()
    def same_population(self):
        expected = sorted((repr(f), ids) for f, ids in self.oracle.entries())
        for engine in self.engines:
            assert sorted((repr(f), ids) for f, ids in engine.entries()) == expected


ProbeOrderMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestProbeOrder = ProbeOrderMachine.TestCase


def test_filter_inserted_after_a_match_rides_through_compiled_attributes():
    """The free masks follow the live set: a filter registered after a
    match constrains none of the attributes compiled by then."""
    engine = CompiledMatchEngine()
    engine.insert(Filter([AttributeConstraint("symbol", EQ, "x")]), "first")
    assert engine.match({"symbol": "y"}) == []
    # Neither recompiles an attribute: only the live set moves.
    wildcard = Filter([AttributeConstraint("symbol", ALL)])
    residual = Filter([AttributeConstraint("symbol", NE, "x")])
    engine.insert(wildcard, "wildcard")
    engine.insert(residual, "residual")
    assert engine.match({"symbol": "y"}) == [
        (wildcard, ("wildcard",)),
        (residual, ("residual",)),
    ]
    assert engine.match({}) == [(wildcard, ("wildcard",))]
    late = Filter([AttributeConstraint("price", GT, 1)])
    engine.insert(late, "late")
    assert engine.match({"symbol": "y", "price": 2}) == [
        (wildcard, ("wildcard",)),
        (residual, ("residual",)),
        (late, ("late",)),
    ]


def test_most_selective_attribute_is_probed_first():
    """Registered first, an attribute every filter shares is probed last:
    one probe of the per-filter attribute settles a non-matching event."""
    engine = CompiledMatchEngine()
    for symbol in range(50):
        engine.insert(
            Filter([
                AttributeConstraint("class", EQ, "quote"),
                AttributeConstraint("region", EQ, f"r{symbol % 4}"),
                AttributeConstraint("symbol", EQ, f"s{symbol}"),
            ]),
            symbol,
        )  # fmt: skip
    engine.match({})
    assert [attribute for attribute, _ in engine._order] == ["symbol", "region", "class"]
    before = engine.evaluations
    assert engine.match({"class": "quote", "region": "r0", "symbol": "none"}) == []
    assert engine.evaluations - before == 1
