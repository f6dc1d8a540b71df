"""NaN never enters a sorted tier or an equality bucket.

NaN compares false with everything, itself included.  A bisect over an
array that holds one lands anywhere, so a stored ``price < nan`` used to
shift the boundary of every later probe of that tier — another
subscriber's ``price < 5.0`` stopped matching 3.0 — and a NaN *value*
bisected to a boundary as if it were ordered.  Both indexed engines are
held here to the :class:`FilterTable` oracle on exactly those cases (the
differential state machine draws NaN as well, ``test_differential.py``).
"""

from decimal import Decimal

import pytest

from repro.filters.compiled import CompiledMatchEngine
from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import CachedMatchEngine
from repro.filters.filter import Filter
from repro.filters.index import CountingIndex
from repro.filters.operators import EQ, EXISTS, GE, GT, LE, LT, NE
from repro.filters.table import FilterTable

try:
    import numpy
except ImportError:  # pragma: no cover - numpy is no dependency of repro
    numpy = None

NAN = float("nan")
#: A NaN of another type equals nothing either, and a bucket keyed by one
#: was found by the very same object through dict identity.
OTHER_NANS = [("decimal-nan", Decimal("NaN")), ("complex-nan", complex(NAN, 0))]


class NumpyScalarEvents(CompiledMatchEngine):
    """The compiled engine, seeing every float property as a
    ``numpy.float64``: a float subclass, so the kernel's exact-type
    shortcut passes it to the general path, which must answer as the
    oracle does for the plain float."""

    @staticmethod
    def _converted(event):
        return {
            name: numpy.float64(value) if type(value) is float else value
            for name, value in event.items()
        }

    def match(self, event):
        return super().match(self._converted(event))

    def match_batch(self, events):
        return super().match_batch([self._converted(event) for event in events])


ENGINES = {
    "index": CountingIndex,
    "compiled": CompiledMatchEngine,
    "cached-compiled": lambda: CachedMatchEngine(CompiledMatchEngine()),
}
if numpy is not None:
    ENGINES["compiled-numpy"] = NumpyScalarEvents

BOUNDS = [(LT, 5.0), (LE, 5.0), (GT, 5.0), (GE, 5.0)]


def price(operator, operand=None):
    return Filter([AttributeConstraint("price", operator, operand)])


def load(engine, constraints):
    for destination, (operator, operand) in enumerate(constraints):
        engine.insert(price(operator, operand), destination)
    return engine


def rendered(matches):
    return [(str(filter_), ids) for filter_, ids in matches]


@pytest.fixture(params=sorted(ENGINES))
def make(request):
    return ENGINES[request.param]


@pytest.mark.parametrize(
    "extra",
    [(LT, NAN), (LE, NAN), (GT, NAN), (GE, NAN), (EQ, NAN), (NE, NAN)]
    + [pytest.param((EQ, nan), id=f"={name}") for name, nan in OTHER_NANS],
    ids=lambda extra: f"{extra[0].symbol}nan",
)
@pytest.mark.parametrize(
    "value",
    [3.0, 5.0, 7.0, NAN, float("inf"), -0.0, "3"]
    + [pytest.param(nan, id=name) for name, nan in OTHER_NANS],
)
def test_a_nan_operand_moves_no_other_filter(make, extra, value):
    constraints = BOUNDS + [extra, (EXISTS, None)]
    oracle = load(FilterTable(), constraints)
    engine = load(make(), constraints)
    event = {"price": value}
    expected = oracle.match(event)
    assert rendered(engine.match(event)) == rendered(expected)
    assert rendered(engine.match_batch([event, {}, event])[2]) == rendered(expected)


def test_the_issue_table(make):
    """The four cases as reported, spelled out against fixed answers."""
    lt, le, ge = "(price, 5.0, <)", "(price, 5.0, <=)", "(price, 5.0, >=)"

    def matched(extra, value):
        engine = load(make(), BOUNDS + [extra])
        return [str(filter_) for filter_, _ in engine.match({"price": value})]

    assert matched((LT, NAN), 3.0) == [lt, le]  # was [le]: a missed filter
    assert matched((GE, NAN), 3.0) == [lt, le]  # was + [ge, '>= nan']
    assert matched((LT, 7.0), NAN) == []  # was [le, ge]
    assert matched((EQ, NAN), NAN) == []  # was [le, ge, '= nan']
    assert ge not in matched((GT, NAN), 3.0)


def test_a_nan_value_satisfies_exists_and_the_interpreted_operators_only(make):
    constraints = BOUNDS + [(EQ, 5.0), (EXISTS, None), (NE, 5.0)]
    engine = load(make(), constraints)
    assert [str(f) for f, _ in engine.match({"price": NAN})] == [
        "(price, exists)",
        "(price, 5.0, !=)",
    ]


def test_nan_filters_are_removed_and_their_slots_reused(make):
    """A NaN operand that reached a sorted array could not be found
    again (``nan == nan`` is false), so its slot was recycled while the
    array still pointed at it."""
    engine, oracle = make(), FilterTable()
    nan_filters = [price(op, NAN) for op in (LT, LE, GT, GE, EQ)]
    for subject in (engine, oracle):
        load(subject, BOUNDS)
        for filter_ in nan_filters:
            subject.insert(filter_, "nan-subscriber")
        subject.match({"price": 3.0})  # compile with them in
        assert subject.remove_destination("nan-subscriber") == len(nan_filters)
        # Whatever slots they held go to filters that 3.0 must not match.
        for offset in range(len(nan_filters)):
            subject.insert(price(GT, 100.0 + offset), "late")
    assert len(engine) == len(oracle) == len(BOUNDS) + len(nan_filters)
    for value in (3.0, 5.0, 200.0, NAN):
        event = {"price": value}
        assert rendered(engine.match(event)) == rendered(oracle.match(event))
    for filter_ in nan_filters:
        assert filter_ not in engine
