"""Differential stateful testing: every match engine against the oracle.

A hypothesis state machine drives random interleavings of ``insert`` /
``remove`` / ``remove_destination`` / ``match`` simultaneously against

- the Figure-6 :class:`FilterTable` (the paper's algorithm — the oracle),
- a plain :class:`CountingIndex`,
- :class:`CompiledMatchEngine` (the pure-Python bitmap kernel),
- :class:`CachedMatchEngine` wrapping each of the above,

and asserts after every step that all engines return identical *ordered*
match results (every engine yields filter-insertion order) and identical
introspection state.  This is the harness that keeps the routing-decision
cache and the compiled bitmap structures honest: any unsound memoization,
missed invalidation, or stale compiled tier shows up as a divergence from
the uncached oracle within a few dozen random steps.  ``match_batch`` is
driven through the same machine so the batched entry point (including the
cached wrapper's miss-dedup batching) is held to the same oracle.
"""

from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.filters.compiled import CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import CachedMatchEngine
from repro.filters.filter import Filter
from repro.filters.index import CountingIndex
from repro.filters.operators import (
    ALL,
    CONTAINS,
    EQ,
    EXISTS,
    GE,
    GT,
    LE,
    LT,
    NE,
    PREFIX,
)
from repro.filters.table import FilterTable

ATTRIBUTES = ["a", "b", "c"]
DESTINATIONS = ["n1", "n2", "n3"]

#: Operands and probe values alike.  The floats no ordered structure
#: likes ride along: NaN (unordered — one object, so that a filter
#: holding it equals itself and can be removed again; a branch of its
#: own, since drawn once in twenty-five it met no ordering filter in 60
#: examples and the engines it breaks passed), both infinities, a
#: negative zero (equal to 0 under ``=``, hashed like it) and an integer
#: past 2**63 that no float64 holds exactly (a float conversion
#: anywhere on the range path would round it onto its neighbours).
#: Numbers outside the int/float family ride along too, each in a
#: branch with the int or float it equals under ``==`` and hashes like
#: (an equality key that let them share a bucket or a memo entry
#: matched one for the other): ``=`` never holds between the two, and
#: no ordering constraint holds for the outsider.
values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, 1.5]),
    st.just(float("nan")),
    st.sampled_from([float("inf"), float("-inf"), -0.0, 2**63 + 1]),
    st.sampled_from(["", "v", "va", "w"]),
    st.booleans(),
    st.sampled_from([1, Decimal(1), complex(1, 0)]),
    st.sampled_from([0.5, Fraction(1, 2)]),
)

@st.composite
def constraints(draw):
    attr = draw(st.sampled_from(ATTRIBUTES))
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return AttributeConstraint(attr, draw(st.sampled_from([EXISTS, ALL])))
    if kind == 1:
        return AttributeConstraint(
            attr,
            draw(st.sampled_from([PREFIX, CONTAINS])),
            draw(st.sampled_from(["v", "va", "w", ""])),
        )
    return AttributeConstraint(
        attr, draw(st.sampled_from([EQ, NE, LT, LE, GT, GE])), draw(values)
    )


filters = st.lists(constraints(), min_size=1, max_size=3).map(Filter)

events = st.dictionaries(
    st.sampled_from(ATTRIBUTES), values, min_size=0, max_size=3
)


class EngineDifferential(RuleBasedStateMachine):
    """Apply identical operations everywhere; the oracle arbitrates."""

    def __init__(self):
        super().__init__()
        self.oracle = FilterTable()
        self.others = [
            CountingIndex(),
            CompiledMatchEngine(),
            CachedMatchEngine(FilterTable()),
            CachedMatchEngine(CountingIndex()),
            CachedMatchEngine(CompiledMatchEngine()),
        ]
        #: (filter, destination) pairs currently stored, for removals that
        #: actually hit (pure misses exercise nothing after the first one).
        self.live = []

    def engines(self):
        return [self.oracle] + self.others

    @rule(filter_=filters, destination=st.sampled_from(DESTINATIONS))
    def insert(self, filter_, destination):
        if filter_.matches_nothing:
            return  # engines reject fF uniformly; not interesting here
        for engine in self.engines():
            engine.insert(filter_, destination)
        if (filter_, destination) not in self.live:
            self.live.append((filter_, destination))

    @rule(data=st.data())
    def remove_live_pair(self, data):
        if not self.live:
            return
        filter_, destination = data.draw(
            st.sampled_from(self.live), label="live pair"
        )
        results = {engine.remove(filter_, destination) for engine in self.engines()}
        assert results == {True}
        self.live.remove((filter_, destination))

    @rule(filter_=filters, destination=st.sampled_from(DESTINATIONS))
    def remove_arbitrary_pair(self, filter_, destination):
        results = {engine.remove(filter_, destination) for engine in self.engines()}
        assert len(results) == 1  # all agree, hit or miss
        if results == {True} and (filter_, destination) in self.live:
            self.live.remove((filter_, destination))

    @rule(destination=st.sampled_from(DESTINATIONS))
    def remove_destination(self, destination):
        counts = {engine.remove_destination(destination) for engine in self.engines()}
        assert len(counts) == 1
        self.live = [pair for pair in self.live if pair[1] != destination]

    @rule(event=events)
    def match(self, event):
        expected = self.oracle.match(event)
        for engine in self.others:
            assert engine.match(event) == expected, (
                f"{engine!r} diverged from oracle on {event}"
            )

    @rule(event=events)
    def match_twice(self, event):
        """Back-to-back matches force the cached engines onto the hit path."""
        expected = self.oracle.match(event)
        for engine in self.others:
            engine.match(event)
            assert engine.match(event) == expected

    @rule(batch=st.lists(events, min_size=1, max_size=4))
    def match_batch(self, batch):
        """The batched entry point must equal event-by-event matching.

        Repeating the batch back-to-back covers the repeated-fingerprint
        paths: in-batch dedup on the first call, memo hits on the second.
        """
        expected = [self.oracle.match(event) for event in batch]
        for engine in self.others:
            assert engine.match_batch(batch) == expected, (
                f"{engine!r} batch diverged from oracle on {batch}"
            )
            assert engine.match_batch(batch + batch) == expected + expected

    @invariant()
    def same_population(self):
        expected = sorted(
            (repr(f), tuple(ids)) for f, ids in self.oracle.entries()
        )
        for engine in self.others:
            actual = sorted((repr(f), tuple(ids)) for f, ids in engine.entries())
            assert actual == expected
            assert len(engine) == len(self.oracle)


EngineDifferential.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestEngineDifferential = EngineDifferential.TestCase
