"""Tests for the covering index (pruned subsumption queries).

The index's contract is exactness: every query must return precisely
what a naive pairwise ``Filter.covers`` scan over the stored set would —
the candidate pruning is a speedup, never an approximation.  The
property test drives random pools through inserts *and* removals and
compares all three query surfaces against the naive answer.
"""

from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.filters.constraints import AttributeConstraint, conjunction_implies
from repro.filters.covering_index import CoveringIndex, filter_shape
from repro.filters.filter import Filter
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
from repro.filters.parser import parse_filter

ATTRIBUTES = ["a", "b", "c"]

NAN = float("nan")

# NaN has no place in a sorted tier or a bucket, the infinities sit at the
# ends of one, and -0.0 == 0 shares a bucket with it under another repr.
# Decimal(1), Fraction(1, 2) and complex(1, 0) equal an int or a float
# under == and hash like it, but no constraint on one implies a
# constraint on the other: they share no bucket and enter no run.
values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.5, 1.5, 2.5, NAN, float("inf"), float("-inf"), -0.0]),
    st.sampled_from(["", "v", "va", "vab", "w"]),
    st.booleans(),
    st.sampled_from([Decimal(1), Fraction(1, 2), complex(1, 0)]),
)

nullary_ops = st.sampled_from([EXISTS, ALL])
value_ops = st.sampled_from([EQ, NE, LT, LE, GT, GE])
string_ops = st.sampled_from([PREFIX, CONTAINS])


@st.composite
def constraints(draw, attribute=None):
    attr = attribute or draw(st.sampled_from(ATTRIBUTES))
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return AttributeConstraint(attr, draw(nullary_ops))
    if kind == 1:
        return AttributeConstraint(
            attr, draw(string_ops), draw(st.sampled_from(["v", "va", "w", ""]))
        )
    return AttributeConstraint(attr, draw(value_ops), draw(values))


filters = st.lists(constraints(), min_size=0, max_size=4).map(Filter)


def reference_covers(coverer, covered):
    """Definition 2 as ``Filter.covers`` states it without shortcuts:
    each of ``coverer``'s constraints implied by ``covered``'s
    constraints on its attribute."""
    if covered.matches_nothing:
        return True
    if coverer.matches_nothing:
        return False
    return all(
        conjunction_implies(covered.constraints_on(c.attribute), c)
        for c in coverer.constraints
        if c.operator is not ALL
    )


@given(filters, filters, values, values)
@settings(max_examples=300, deadline=None)
def test_covers_and_its_equality_shortcut_are_the_definition(f, g, v, w):
    """``Filter.covers`` (through ``covers_grouped``, which decides a lone
    ``x = v`` premise against ``x = w`` itself) against the definition,
    on generated filters and on lone equalities of any two values: one
    type or two, equal under ``==`` or not."""
    x = Filter([AttributeConstraint("a", EQ, v)])
    y = Filter([AttributeConstraint("a", EQ, w)])
    for coverer, covered in ((f, g), (g, f), (x, y), (y, x), (x, g), (g, x)):
        expected = reference_covers(coverer, covered)
        assert coverer.covers(covered) == expected
        if not covered.matches_nothing:
            grouped = covered.constraints_by_attribute()
            assert coverer.covers_grouped(grouped) == expected


def naive_covered_by(pool, probe):
    return [g for g in pool if g.covers(probe)]


def naive_covers_of(pool, probe):
    return [g for g in pool if probe.covers(g)]


def naive_maximal(pool):
    return [
        f
        for f in pool
        if not any(g.covers(f) and not f.covers(g) for g in pool)
    ]


def check_against_naive(pool, removals, probes):
    index = CoveringIndex()
    stored = []
    for f in pool:
        if index.add(f):
            stored.append(f)
    for position in removals:
        if position < len(stored):
            removed = stored.pop(position)
            assert index.discard(removed)
    # Stored copies of the probes exercise the reflexive case too.
    for probe in probes + stored[:2]:
        assert index.covered_by(probe) == naive_covered_by(stored, probe)
        assert index.covers_of(probe) == naive_covers_of(stored, probe)
    assert index.maximal() == naive_maximal(stored)
    for f in stored:
        assert index.is_maximal(f) == (f in naive_maximal(stored))


@given(
    pool=st.lists(filters, min_size=0, max_size=12),
    removals=st.lists(st.integers(min_value=0, max_value=11), max_size=6),
    probes=st.lists(filters, min_size=1, max_size=4),
)
@settings(max_examples=120)
def test_queries_agree_with_naive_pairwise(pool, removals, probes):
    check_against_naive(pool, removals, probes)


# The same differential where the sorted tiers are dense: one bound or
# equality per attribute on one attribute or two, operands from a handful
# of floats.  The pool above rarely puts a NaN *between* two operands of
# one tier and then removes a neighbour, which is what it takes to strand
# a handle; nor does it often make a query intersect a second posting
# that is read off sorted runs.
def _bound(attribute):
    return st.builds(
        lambda operator, operand: AttributeConstraint(attribute, operator, operand),
        st.sampled_from([EQ, LT, LE, GT, GE]),
        st.sampled_from([NAN, float("inf"), float("-inf"), -0.0, 0, 0.5, 1.0, 2.0, 3.0]),
    )


bounds = st.one_of(
    st.builds(lambda c: Filter([c]), _bound("a")),
    st.builds(lambda c, d: Filter([c, d]), _bound("a"), _bound("b")),
)


@given(
    pool=st.lists(bounds, min_size=0, max_size=16),
    removals=st.lists(st.integers(min_value=0, max_value=15), max_size=10),
    probes=st.lists(bounds, min_size=1, max_size=4),
)
@settings(max_examples=120)
def test_dense_bounds_agree_with_naive_pairwise(pool, removals, probes):
    check_against_naive(pool, removals, probes)


def test_a_nan_bound_strands_no_handle():
    """``x < nan`` used to enter the sorted upper bounds; removing
    ``x < 2.0`` then bisected past it, left its handle behind, and the
    next query dereferenced it (``KeyError: 0``)."""

    def below(operand):
        return Filter([AttributeConstraint("x", LT, operand)])

    index = CoveringIndex()
    first, nan_bound, third, fourth = below(2.0), below(NAN), below(3.0), below(1.0)
    for f in (first, nan_bound, third, fourth):
        assert index.add(f)
    assert index.discard(first)
    stored = [nan_bound, third, fourth]
    probe = below(0.5)
    assert index.covered_by(probe) == naive_covered_by(stored, probe) == [third, fourth]
    assert index.covers_of(third) == naive_covers_of(stored, third)
    assert index.maximal() == naive_maximal(stored)
    assert index.discard(nan_bound)
    assert list(index.filters()) == [third, fourth]


def test_results_come_back_in_insertion_order():
    index = CoveringIndex()
    broad = parse_filter("a > 0")
    narrow = parse_filter("a > 2 and b = 1")
    narrower = parse_filter("a > 3 and b = 1 and c = 2")
    for f in (narrow, broad, narrower):
        index.add(f)
    assert index.covered_by(narrower) == [narrow, broad, narrower]
    assert index.covers_of(broad) == [narrow, broad, narrower]
    assert index.maximal() == [broad]


def test_bottom_filter_edges():
    index = CoveringIndex()
    bottom = Filter.bottom()
    assert bottom.matches_nothing
    top = Filter([])
    assert index.add(bottom)
    assert index.add(top)
    # Everything covers fF; fF covers only fF.
    assert index.covered_by(bottom) == [bottom, top]
    assert index.covers_of(bottom) == [bottom]
    # fF never covers a satisfiable filter, so it is not among top's
    # covers; top covers both.
    assert index.covered_by(top) == [top]
    assert index.covers_of(top) == [bottom, top]
    assert index.maximal() == [top]
    assert index.discard(bottom)
    assert index.maximal() == [top]


def test_add_and_discard_are_idempotent():
    index = CoveringIndex()
    f = parse_filter('a = "x"')
    assert index.add(f)
    assert not index.add(f)
    assert len(index) == 1
    assert f in index
    assert index.discard(f)
    assert not index.discard(f)
    assert f not in index
    assert index.maximal() == []


def test_is_maximal_requires_membership():
    index = CoveringIndex()
    with pytest.raises(KeyError):
        index.is_maximal(parse_filter("a = 1"))


def test_maximal_keeps_equivalent_filters():
    """Mutually covering filters are both maximal (no strict cover)."""
    index = CoveringIndex()
    f = parse_filter("a = 1")
    g = Filter(
        [AttributeConstraint("a", EQ, 1), AttributeConstraint("b", ALL)]
    )
    assert f.covers(g) and g.covers(f) and f != g
    index.add(f)
    index.add(g)
    assert index.maximal() == [f, g]


def test_shape_helper():
    f = Filter(
        [AttributeConstraint("a", EQ, 1), AttributeConstraint("b", ALL)]
    )
    assert filter_shape(f) == frozenset({"a"})
    assert filter_shape(Filter([])) == frozenset()


def test_pruning_actually_prunes():
    """On an equality-bucketed population, verification touches a small
    fraction of the stored filters."""
    index = CoveringIndex()
    stored = []
    for i in range(200):
        f = parse_filter(f'a = "v{i % 50}" and b < {i % 7}')
        if index.add(f):
            stored.append(f)
    index.covers_checks = 0
    probe = parse_filter('a = "v3" and b < 3')
    assert index.covered_by(probe) == naive_covered_by(stored, probe)
    assert index.covers_checks < len(stored) // 4
