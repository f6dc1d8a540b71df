"""Standard subscription filter format (Section 4.4).

A *standard* filter w.r.t. an event schema specifies **every** attribute
of the schema, in the schema's generality order (most general first);
attributes the subscriber did not constrain carry the ``(attr, ALL)``
wildcard constraint.  The paper converts all subscription filters to this
format so that filter weakening can operate purely positionally on the
attribute-stage association ``Gc``.
"""

from functools import lru_cache
from typing import List, Sequence

from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import ALL


@lru_cache(maxsize=1024)
def _wildcard(attribute: str) -> AttributeConstraint:
    """``(attribute, ALL)``: immutable, so one per attribute name serves
    every standardized filter (bounded: an evicted name gets a fresh,
    equal constraint)."""
    return AttributeConstraint(attribute, ALL)


def standardize(filter_: Filter, schema: Sequence[str], strict: bool = True) -> Filter:
    """Convert ``filter_`` to standard format for ``schema``.

    ``schema`` is the ordered attribute list from the event class
    advertisement (most general attribute first).  Constraints are
    re-ordered to schema order and missing attributes are completed with
    wildcards, so e.g. ``fx = (class=Stock)(symbol=DEF)`` becomes
    ``(class=Stock)(symbol=DEF)(price, ALL)`` under the schema
    ``[class, symbol, price]``.

    With ``strict=True`` (default) a constraint on an attribute outside
    the schema raises ``ValueError``; with ``strict=False`` such
    constraints are appended after the schema attributes, preserving
    matching semantics at the price of positional weakening ignoring them.
    """
    if filter_.matches_nothing:
        return filter_
    schema_set = set(schema)
    extras = [c for c in filter_.constraints if c.attribute not in schema_set]
    if extras and strict:
        names = sorted({c.attribute for c in extras})
        raise ValueError(
            f"filter constrains attributes outside the schema {list(schema)}: {names}"
        )
    ordered: List[AttributeConstraint] = []
    for attribute in schema:
        constraints = filter_.constraints_on(attribute)
        if constraints:
            ordered.extend(constraints)
        else:
            ordered.append(_wildcard(attribute))
    ordered.extend(extras)
    return Filter(ordered)


def is_standard(filter_: Filter, schema: Sequence[str]) -> bool:
    """True when the filter constrains exactly the schema, in schema order."""
    if filter_.matches_nothing:
        return False
    return filter_.attributes() == list(schema)


def wildcard_attributes(filter_: Filter) -> List[str]:
    """Attributes carrying a wildcard (``ALL``) constraint, in filter order."""
    return [c.attribute for c in filter_.constraints if c.operator is ALL]


def most_general_wildcard(filter_: Filter, schema: Sequence[str]) -> str:
    """First schema attribute that is a wildcard in ``filter_`` (§4.5 step 1).

    The schema is ordered most-general-first, so the first wildcard hit is
    the most general wildcard attribute ``Attr_mg``.  Raises ``ValueError``
    when the filter has no wildcard on any schema attribute.
    """
    wildcards = set(wildcard_attributes(filter_))
    for attribute in schema:
        if attribute in wildcards:
            return attribute
    raise ValueError(f"filter {filter_} has no wildcard attribute in schema {list(schema)}")
