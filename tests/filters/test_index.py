"""Unit tests for the counting index, with FilterTable as the oracle."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.filters.compiled import CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import CachedMatchEngine
from repro.filters.filter import Filter
from repro.filters.index import CountingIndex
from repro.filters.operators import ALL, CONTAINS, EQ, EXISTS, GE, GT, LE, LT, NE, PREFIX
from repro.filters.parser import parse_filter
from repro.filters.table import FilterTable

EVENT = {"symbol": "Foo", "price": 5, "volume": 100}


def test_basic_equality_match():
    index = CountingIndex()
    index.insert(parse_filter('symbol = "Foo"'), "a")
    index.insert(parse_filter('symbol = "Bar"'), "b")
    assert index.destinations(EVENT) == {"a"}


def test_conjunction_requires_all_constraints():
    index = CountingIndex()
    index.insert(parse_filter('symbol = "Foo" and price > 10'), "a")
    assert index.destinations(EVENT) == set()
    assert index.destinations({"symbol": "Foo", "price": 11}) == {"a"}


def test_ordering_operators_via_sorted_arrays():
    index = CountingIndex()
    index.insert(parse_filter("price < 10"), "lt")
    index.insert(parse_filter("price <= 5"), "le")
    index.insert(parse_filter("price > 1"), "gt")
    index.insert(parse_filter("price >= 5"), "ge")
    index.insert(parse_filter("price > 5"), "gt-strict")
    assert index.destinations(EVENT) == {"lt", "le", "gt", "ge"}


def test_top_filter_always_matches():
    index = CountingIndex()
    index.insert(Filter.top(), "everything")
    assert index.destinations({}) == {"everything"}
    assert index.destinations(EVENT) == {"everything"}


def test_all_wildcard_filter_always_matches():
    index = CountingIndex()
    index.insert(Filter([AttributeConstraint("volume", ALL)]), "w")
    assert index.destinations({}) == {"w"}


def test_exists_and_linear_operators():
    index = CountingIndex()
    index.insert(Filter([AttributeConstraint("volume", EXISTS)]), "e")
    index.insert(Filter([AttributeConstraint("symbol", NE, "Bar")]), "ne")
    index.insert(Filter([AttributeConstraint("symbol", PREFIX, "Fo")]), "p")
    index.insert(Filter([AttributeConstraint("symbol", CONTAINS, "oo")]), "c")
    assert index.destinations(EVENT) == {"e", "ne", "p", "c"}


def test_bottom_filter_rejected():
    index = CountingIndex()
    with pytest.raises(ValueError):
        index.insert(Filter.bottom(), "x")


def test_missing_attribute_fails_constraint():
    index = CountingIndex()
    index.insert(parse_filter("price < 10 and missing = 1"), "a")
    assert index.destinations(EVENT) == set()


def test_bool_values_do_not_match_numeric_bounds():
    index = CountingIndex()
    index.insert(parse_filter("flag < 10"), "a")
    index.insert(parse_filter("flag = true"), "b")
    assert index.destinations({"flag": True}) == {"b"}
    assert index.destinations({"flag": 5}) == {"a"}


def test_remove_pair_and_entry():
    index = CountingIndex()
    f = parse_filter('symbol = "Foo"')
    index.insert(f, "a")
    index.insert(f, "b")
    assert index.remove(f, "a") is True
    assert index.destinations(EVENT) == {"b"}
    assert index.remove(f, "b") is True
    assert len(index) == 0
    assert index.destinations(EVENT) == set()


def test_remove_missing_returns_false():
    index = CountingIndex()
    assert index.remove(parse_filter("a = 1"), "x") is False


def test_remove_destination():
    index = CountingIndex()
    index.insert(parse_filter('symbol = "Foo"'), "n1")
    index.insert(parse_filter("price < 10"), "n1")
    assert index.remove_destination("n1") == 2
    assert len(index) == 0


def test_reinsert_after_full_removal():
    index = CountingIndex()
    f = parse_filter("price < 10")
    index.insert(f, "a")
    index.remove(f, "a")
    index.insert(f, "b")
    assert index.destinations(EVENT) == {"b"}


def test_entries_and_contains():
    index = CountingIndex()
    f = parse_filter("price < 10")
    index.insert(f, "a")
    assert f in index
    assert list(index.entries()) == [(f, ("a",))]
    assert index.destinations_for(f) == ("a",)


def test_match_order_is_insertion_order():
    index = CountingIndex()
    first = parse_filter("price < 10")
    second = parse_filter('symbol = "Foo"')
    index.insert(first, "a")
    index.insert(second, "b")
    assert [f for f, _ in index.match(EVENT)] == [first, second]


def test_evaluations_count_actual_probes():
    """Pin the probe-accounting semantics of ``CountingIndex.match``.

    ``evaluations`` counts the constraint probes actually performed — one
    per satisfied constraint harvested from the hash/sorted/exists
    sub-indexes, plus one per linear-fallback constraint tested — NOT one
    per stored filter.  The FilterTable comparator would charge 4 here
    (one evaluation per filter).
    """
    index = CountingIndex()
    index.insert(parse_filter('symbol = "Foo"'), "foo")
    index.insert(parse_filter('symbol = "Bar"'), "bar")
    index.insert(parse_filter("price < 10 and price > 1"), "band")
    index.insert(Filter([AttributeConstraint("name", NE, "x")]), "lin")

    index.match({"symbol": "Foo", "price": 5})
    # symbol eq-bucket harvest: 1 probe ("Bar" bucket never touched);
    # price sorted arrays: lt(10) + gt(1) both satisfied: 2 probes;
    # "name" linear list: event has no "name", so never consulted.
    assert index.evaluations == 3

    index.match({"symbol": "Foo", "price": 5})
    assert index.evaluations == 6  # probes accrue per match call

    # Linear-fallback constraints are charged whether or not they pass.
    index.match({"name": "x"})
    assert index.evaluations == 7

    # An event touching no indexed attribute performs no probes at all.
    index.match({"volume": 100})
    assert index.evaluations == 7


def test_cached_engine_hits_cost_zero_probes():
    """A routing-cache hit must not advance the probe counter."""
    from repro.filters.engine import CachedMatchEngine

    engine = CachedMatchEngine(CountingIndex())
    engine.insert(parse_filter('symbol = "Foo"'), "foo")
    event = {"symbol": "Foo", "price": 5}
    engine.match(event)
    after_miss = engine.evaluations
    assert after_miss > 0
    engine.match(event)  # cache hit: no probes
    assert engine.evaluations == after_miss


@pytest.mark.parametrize(
    "inner", [FilterTable, CountingIndex, CompiledMatchEngine],
    ids=lambda cls: cls.__name__,
)
@pytest.mark.parametrize("foreign", [Decimal(1), Fraction(1), complex(1, 0)], ids=repr)
@pytest.mark.parametrize("foreign_first", [True, False])
def test_the_routing_cache_keys_equality_as_the_oracle_does(inner, foreign, foreign_first):
    """``1`` and ``Decimal(1)`` compare equal and hash alike, but only
    one of them satisfies ``x = 1``: a fingerprint that let them share a
    memo entry answered whichever came second with the first one's
    decision."""
    engine = CachedMatchEngine(inner())
    engine.insert(parse_filter("x = 1"), "d")
    events = [{"x": foreign}, {"x": 1}]
    if not foreign_first:
        events.reverse()
    answers = {repr(event["x"]): bool(engine.match(event)) for event in events}
    assert answers == {repr(foreign): False, "1": True}
    assert engine.cached_decisions() == 2


def _random_filter(rng: random.Random) -> Filter:
    attributes = ["a", "b", "c"]
    operators = [EQ, NE, LT, LE, GT, GE, EXISTS, ALL, PREFIX, CONTAINS]
    constraints = []
    for _ in range(rng.randrange(1, 4)):
        attr = rng.choice(attributes)
        op = rng.choice(operators)
        if op in (EXISTS, ALL):
            constraints.append(AttributeConstraint(attr, op))
        elif op in (PREFIX, CONTAINS):
            constraints.append(
                AttributeConstraint(attr, op, rng.choice(["v", "va", "w"]))
            )
        else:
            operand = rng.choice([1, 2, 3, "v1", "v2", True])
            constraints.append(AttributeConstraint(attr, op, operand))
    return Filter(constraints)


def _random_event(rng: random.Random) -> dict:
    values = [0, 1, 2, 3, "v1", "v2", "value", True, False]
    return {
        attr: rng.choice(values)
        for attr in ["a", "b", "c"]
        if rng.random() < 0.8
    }


def test_index_agrees_with_table_on_random_populations():
    """The counting index must be semantically identical to Figure 6."""
    rng = random.Random(2002)
    for trial in range(30):
        table, index = FilterTable(), CountingIndex()
        filters = [_random_filter(rng) for _ in range(25)]
        for position, filter_ in enumerate(filters):
            table.insert(filter_, position)
            index.insert(filter_, position)
        for _ in range(20):
            event = _random_event(rng)
            assert index.destinations(event) == table.destinations(event), (
                f"divergence on {event} (trial {trial})"
            )
        # Random removals keep them in sync too.
        for position, filter_ in enumerate(filters):
            if rng.random() < 0.5:
                assert table.remove(filter_, position) == index.remove(
                    filter_, position
                )
        for _ in range(10):
            event = _random_event(rng)
            assert index.destinations(event) == table.destinations(event)
