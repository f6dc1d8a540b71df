"""``Filter.matches`` against its definition, constraint by constraint.

``Filter.matches`` evaluates constraints inline (it runs once per filter
per copy at stage 0); ``AttributeConstraint.matches`` is the spelled-out
definition.  Generated filters and events hold them equal: values that
compare oddly (NaN, ``True`` beside ``1``, ``1`` beside ``1.0`` and
``Decimal(1)``, ``bytes``, ``None``), missing attributes, every operator
group, and the
four shapes an event arrives in — a ``PropertyEvent``, a plain dict, an
object exposing ``.properties`` and a ``PropertyEvent`` subclass that
redefines lookup (which must not be read through its dict).
"""

from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.events.base import PropertyEvent
from repro.filters.constraints import AttributeConstraint
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

ATTRIBUTES = ["a", "b", "c"]
NAN = float("nan")

values = st.one_of(
    st.sampled_from([0, 1, -1, 2]),
    st.sampled_from([0.0, 1.0, -0.0, 0.5, NAN, float("inf")]),
    st.booleans(),
    st.sampled_from(["", "v", "va", "w"]),
    st.sampled_from([b"", b"v"]),
    st.none(),
    st.sampled_from([Decimal(1), Fraction(1, 2), complex(1, 0)]),
)


@st.composite
def constraints(draw):
    attribute = draw(st.sampled_from(ATTRIBUTES))
    group = draw(st.sampled_from(["nullary", "string", "value"]))
    if group == "nullary":
        return AttributeConstraint(attribute, draw(st.sampled_from([ALL, EXISTS])))
    if group == "string":
        operand = draw(st.one_of(st.sampled_from(["", "v", "va"]), values))
        return AttributeConstraint(attribute, draw(st.sampled_from([PREFIX, CONTAINS])), operand)
    operator = draw(st.sampled_from([EQ, EQ, NE, LT, LE, GT, GE]))
    return AttributeConstraint(attribute, operator, draw(values))


filters = st.one_of(
    st.lists(constraints(), max_size=4).map(Filter),
    st.just(Filter.bottom()),
)
properties = st.dictionaries(st.sampled_from(ATTRIBUTES), values, max_size=3)


class Carrier:
    """Not a mapping: exposes one through ``.properties``."""

    def __init__(self, properties):
        self.properties = properties


class Redacting(PropertyEvent):
    """A subclass whose lookup hides attribute ``b``."""

    __slots__ = ()

    def __contains__(self, name):
        return name != "b" and super().__contains__(name)

    def __getitem__(self, name):
        if name == "b":
            raise KeyError(name)
        return super().__getitem__(name)


def shapes(props):
    """Each event shape paired with the mapping its constraints see."""
    event = PropertyEvent(props)
    redacting = Redacting(props)
    carrier = Carrier(dict(props))
    return [
        (event, event),
        (dict(props), dict(props)),
        (carrier, carrier.properties),
        (redacting, redacting),
    ]


def by_definition(filter_, mapping):
    if filter_.matches_nothing:
        return False
    return all(constraint.matches(mapping) for constraint in filter_.constraints)


@settings(max_examples=400, deadline=None)
@given(filter_=filters, props=properties)
def test_matches_equals_the_constraint_definition(filter_, props):
    for event, mapping in shapes(props):
        assert filter_.matches(event) == by_definition(filter_, mapping), (
            type(event).__name__,
            props,
        )


def test_a_subclass_is_read_through_its_own_lookup():
    event = Redacting({"a": 1, "b": 2})
    assert Filter([AttributeConstraint("a", EQ, 1)]).matches(event)
    assert not Filter([AttributeConstraint("b", EQ, 2)]).matches(event)
    assert not Filter([AttributeConstraint("b", EXISTS)]).matches(event)
    assert Filter([AttributeConstraint("b", ALL)]).matches(event)


def test_a_private_dict_on_another_type_is_not_read():
    class Impostor(dict):
        pass

    event = Impostor(a=1)
    event._properties = {"a": 2}
    assert Filter([AttributeConstraint("a", EQ, 1)]).matches(event)
    assert not Filter([AttributeConstraint("a", EQ, 2)]).matches(event)


def test_equality_across_types_goes_through_the_operator():
    assert not Filter([AttributeConstraint("a", EQ, 1)]).matches(PropertyEvent(a=True))
    assert not Filter([AttributeConstraint("a", EQ, True)]).matches(PropertyEvent(a=1))
    assert Filter([AttributeConstraint("a", EQ, 1)]).matches(PropertyEvent(a=1.0))
    assert not Filter([AttributeConstraint("a", EQ, NAN)]).matches(PropertyEvent(a=NAN))
    assert Filter([AttributeConstraint("a", EQ, b"v")]).matches(PropertyEvent(a=b"v"))
