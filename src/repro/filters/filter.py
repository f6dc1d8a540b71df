"""Conjunctive filters: Definitions 1-3 of the paper.

A :class:`Filter` is an ordered conjunction of
:class:`~repro.filters.constraints.AttributeConstraint`; the order carries
the *generality* ordering of Section 4.1 (most general attribute first),
which the weakening machinery in :mod:`repro.core.stages` relies on.

- ``f.matches(e)`` is the paper's ``f(e)`` (Definition 1);
- ``f.covers(g)`` is the covering relation ``f ⊒ g`` (Definition 2),
  decided soundly through constraint implication;
- :func:`event_covers` is the filter-relative event covering relation
  (Definition 3).
"""

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.events.base import PropertyEvent
from repro.filters.constraints import AttributeConstraint, conjunction_implies
from repro.filters.operators import ALL, EQ


def _properties_of(event: Any) -> Mapping[str, Any]:
    """Accept either a plain mapping or an object exposing ``properties``."""
    props = getattr(event, "properties", None)
    if props is not None:
        return props
    return event


class Filter:
    """An immutable conjunction of attribute constraints.

    ``Filter.top()`` is the paper's ``fT`` (matches everything) and
    ``Filter.bottom()`` is ``fF`` (matches nothing).  An empty conjunction
    is ``fT``; ``fF`` needs a distinguished flag because no conjunction of
    satisfiable constraints is unsatisfiable by construction.

    >>> from repro.filters.operators import EQ, GT
    >>> f = Filter([
    ...     AttributeConstraint("symbol", EQ, "Foo"),
    ...     AttributeConstraint("price", GT, 5.0),
    ... ])
    >>> f.matches({"symbol": "Foo", "price": 10.0, "volume": 32300})
    True
    >>> f.matches({"symbol": "Bar", "price": 15.0})
    False
    """

    __slots__ = ("constraints", "matches_nothing", "_hash")

    def __init__(
        self,
        constraints: Iterable[AttributeConstraint] = (),
        matches_nothing: bool = False,
    ):
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "matches_nothing", bool(matches_nothing))
        object.__setattr__(self, "_hash", hash((self.constraints, self.matches_nothing)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Filter is immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot restore;
        # rebuild through __init__ (also re-derives the cached hash).
        return (self.__class__, (self.constraints, self.matches_nothing))

    @classmethod
    def top(cls) -> "Filter":
        """``fT``: matches every event, covers every filter."""
        return cls()

    @classmethod
    def bottom(cls) -> "Filter":
        """``fF``: matches no event, covered by every filter."""
        return cls(matches_nothing=True)

    @property
    def is_top(self) -> bool:
        return not self.matches_nothing and not self.constraints

    @property
    def is_bottom(self) -> bool:
        return self.matches_nothing

    def matches(self, event: Any) -> bool:
        """Definition 1: True iff the event satisfies every constraint.

        :meth:`AttributeConstraint.matches` is the definition; this is the
        same evaluation with the calls taken out, because it runs once per
        filter per copy at stage 0: a ``PropertyEvent`` (exactly that
        class — a subclass may redefine lookup) is read through its own
        dict, and an equality between two values of one type is compared
        here.  Every other case, an absent attribute included, is the
        operator's own ``evaluate``.
        """
        if self.matches_nothing:
            return False
        if type(event) is PropertyEvent:
            properties = event._properties
        else:
            properties = _properties_of(event)
        for constraint in self.constraints:
            attribute = constraint.attribute
            operator = constraint.operator
            operand = constraint.operand
            if attribute in properties:
                value = properties[attribute]
                if operator is EQ and type(value) is type(operand):
                    if not value == operand:
                        return False
                elif not operator.evaluate(value, operand, True):
                    return False
            elif not operator.evaluate(None, operand, False):
                return False
        return True

    __call__ = matches

    def covers(self, other: "Filter") -> bool:
        """Definition 2, soundly: ``self ⊒ other``.

        True guarantees every event matched by ``other`` is matched by
        ``self``; False may only mean the implication could not be proved.
        """
        if other.matches_nothing:
            return True
        return self.covers_grouped(other.constraints_by_attribute())

    def covers_grouped(
        self, by_attribute: Mapping[str, Sequence[AttributeConstraint]]
    ) -> bool:
        """:meth:`covers` of a satisfiable filter given as its
        constraints by attribute (filter order within each), at least on
        this filter's attributes: a caller that verifies many filters
        against one groups it once.

        One premise ``x = a`` against ``x = b`` with ``a`` and ``b`` of
        one type is decided here: the implication holds exactly when
        ``a == b``, which is what :func:`conjunction_implies` finds too
        (the single-constraint step, then the interval's equality).
        """
        if self.matches_nothing:
            return False
        for constraint in self.constraints:
            operator = constraint.operator
            if operator is ALL:
                continue
            premises = by_attribute.get(constraint.attribute, ())
            if operator is EQ and len(premises) == 1:
                premise = premises[0]
                operand = constraint.operand
                if premise.operator is EQ and type(premise.operand) is type(operand):
                    if premise.operand == operand:
                        continue
                    return False
            if not conjunction_implies(premises, constraint):
                return False
        return True

    def attributes(self) -> List[str]:
        """Attribute names in first-occurrence (generality) order."""
        seen = []
        for constraint in self.constraints:
            if constraint.attribute not in seen:
                seen.append(constraint.attribute)
        return seen

    def constraints_on(self, attribute: str) -> Tuple[AttributeConstraint, ...]:
        """All constraints of this filter on one attribute."""
        return tuple(c for c in self.constraints if c.attribute == attribute)

    def constraints_by_attribute(self) -> Mapping[str, Tuple[AttributeConstraint, ...]]:
        """Constraints grouped by attribute, preserving order within groups."""
        groups: dict = {}
        for constraint in self.constraints:
            groups.setdefault(constraint.attribute, []).append(constraint)
        return {attr: tuple(cs) for attr, cs in groups.items()}

    def restricted_to(self, attributes: Iterable[str]) -> "Filter":
        """Keep only the constraints on the given attributes.

        Dropping constraints can only weaken a conjunction, so the result
        always covers ``self`` — the core step of stage weakening (§4.1).
        """
        if self.matches_nothing:
            return self
        keep = set(attributes)
        return Filter(c for c in self.constraints if c.attribute in keep)

    def without_wildcards(self) -> "Filter":
        """Drop ``ALL`` constraints; equivalent for matching purposes."""
        if self.matches_nothing:
            return self
        return Filter(c for c in self.constraints if c.operator is not ALL)

    def conjoin(self, other: "Filter") -> "Filter":
        """Conjunction of two filters (``self AND other``)."""
        if self.matches_nothing or other.matches_nothing:
            return Filter.bottom()
        return Filter(self.constraints + other.constraints)

    __and__ = conjoin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filter):
            return NotImplemented
        return (
            self.constraints == other.constraints
            and self.matches_nothing == other.matches_nothing
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __str__(self) -> str:
        if self.matches_nothing:
            return "fF"
        if not self.constraints:
            return "fT"
        return " ".join(str(c) for c in self.constraints)

    def __repr__(self) -> str:
        return f"Filter<{self}>"


def event_covers(event: Any, other_event: Any, filter_: Filter) -> bool:
    """Definition 3: ``event ⊒_f other_event``.

    ``event`` covers ``other_event`` for ``filter_`` iff
    ``filter_(other_event) -> filter_(event)``: the (transformed) event is
    at least as accurate a representation w.r.t. that filter.
    """
    return (not filter_.matches(other_event)) or filter_.matches(event)


def strongest_covering(
    candidates: Iterable[Filter], target: Filter
) -> Optional[Filter]:
    """Among ``candidates`` covering ``target``, pick a strongest one.

    "Strongest" means no other covering candidate is covered by it without
    covering back; ties resolve to the first seen.  Used by the placement
    algorithm (§4.2) to route a subscription toward the most similar
    stored filter.
    """
    best: Optional[Filter] = None
    for candidate in candidates:
        if not candidate.covers(target):
            continue
        if best is None or best.covers(candidate) and not candidate.covers(best):
            best = candidate
    return best
