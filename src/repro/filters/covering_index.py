"""Covering index: fast subsumption queries over a set of filters.

The control-plane aggregation of §4 needs two questions answered for
every filter that arrives at or leaves a broker's uplink:

- ``covered_by(f)`` — which stored filters ``g`` satisfy ``g.covers(f)``
  (is the new filter redundant?), and
- ``covers_of(f)`` — which stored filters does ``f`` cover (which
  previously propagated filters become redundant?).

Answering either with pairwise :meth:`~repro.filters.filter.Filter.covers`
is O(n) full implication checks per query.  This index prunes the
candidate set first, using the structure of the covering relation itself:

1. **Shape pruning.**  ``shape(f)`` is the set of attributes carrying at
   least one non-``ALL`` constraint.  ``g.covers(f)`` requires
   ``shape(g) ⊆ shape(f)``: every non-``ALL`` constraint of ``g`` must be
   implied by ``f``'s constraints *on the same attribute*, and
   :func:`~repro.filters.constraints.conjunction_implies` proves nothing
   from an empty (or ``ALL``-only) premise.  Stored filters are therefore
   grouped by shape, and a query only touches groups in the subset (or
   superset, for ``covers_of``) relation with the query's shape.
2. **Per-attribute candidate pruning.**  Within a group, one attribute's
   constraints are classified into equality buckets (hash lookup),
   ordering bounds (sorted operand arrays, bisected), and an "other"
   catch-all.  Single-constraint implications only hold along known
   operand orderings — e.g. ``a < x`` can imply ``a < u`` only when
   ``x <= u`` — so a bisect yields a complete candidate superset.
   Anything unclassifiable (multi-constraint conjunctions, ``NE``,
   ``PREFIX``, ``EXISTS``, non-orderable operands) conservatively stays a
   candidate, preserving completeness relative to ``Filter.covers``.
3. **Verification.**  Surviving candidates get the full pairwise
   ``covers`` check (counted in :attr:`CoveringIndex.covers_checks`), so
   the result is *exactly* the pairwise answer — the pruning is a pure
   speedup, never a semantic change.

The index also maintains the *maximal* filters (those not strictly
covered by another stored filter) incrementally: each insert/remove
updates a strict-cover adjacency, so :meth:`maximal` is a read.
"""

import bisect
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import is_nan, value_key
from repro.filters.filter import Filter
from repro.filters.operators import ALL, EQ, GE, GT, LE, LT


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _orderable(value: Any) -> bool:
    """Values the sorted-bound arrays may hold: bisection needs a total
    order within the family, and booleans are excluded from the numeric
    family by :func:`~repro.filters.operators.values_comparable`."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float, str))


def _family(value: Any) -> str:
    return "str" if isinstance(value, str) else "num"


def filter_shape(filter_: Filter) -> FrozenSet[str]:
    """Attributes carrying at least one non-``ALL`` constraint."""
    return frozenset(
        c.attribute for c in filter_.constraints if c.operator is not ALL
    )


#: Classification tags for a filter's constraints on one attribute.
_EQ, _UP, _LO, _OTHER = "eq", "up", "lo", "other"


def _classify(constraints: Tuple[AttributeConstraint, ...]) -> Tuple[str, Any]:
    """Classify one attribute's non-``ALL`` constraints for pruning.

    Only a *single* constraint with a well-behaved operand is prunable;
    everything else (conjunctions, ``NE``/``PREFIX``/``CONTAINS``/
    ``EXISTS``, unhashable or unorderable operands) falls into the
    ``other`` catch-all, which every query keeps as a candidate.  So
    does a NaN operand: it equals nothing, itself included, so a bisect
    over an array holding one lands anywhere and ``_Sorted.remove``
    cannot find it (or, past it, a different operand) again.
    """
    if len(constraints) != 1:
        return (_OTHER, None)
    constraint = constraints[0]
    operator, operand = constraint.operator, constraint.operand
    if is_nan(operand):
        return (_OTHER, None)
    if operator is EQ and _hashable(operand):
        return (_EQ, operand)
    if (operator is LT or operator is LE) and _orderable(operand):
        return (_UP, operand)
    if (operator is GT or operator is GE) and _orderable(operand):
        return (_LO, operand)
    return (_OTHER, None)


class _Sorted:
    """Parallel sorted (operand, handle) arrays for one operand family."""

    __slots__ = ("values", "handles")

    def __init__(self) -> None:
        self.values: List[Any] = []
        self.handles: List[int] = []

    def add(self, value: Any, handle: int) -> None:
        position = bisect.bisect_right(self.values, value)
        self.values.insert(position, value)
        self.handles.insert(position, handle)

    def remove(self, value: Any, handle: int) -> None:
        left = bisect.bisect_left(self.values, value)
        right = bisect.bisect_right(self.values, value)
        for position in range(left, right):
            if self.handles[position] == handle:
                del self.values[position]
                del self.handles[position]
                return

    def count_le(self, value: Any) -> int:
        return bisect.bisect_right(self.values, value)

    def count_ge(self, value: Any) -> int:
        return len(self.values) - bisect.bisect_left(self.values, value)

    def le(self, value: Any) -> List[int]:
        """Handles whose operand is ``<= value`` (boundary included: the
        verification pass sorts out strict-vs-inclusive implications)."""
        return self.handles[: bisect.bisect_right(self.values, value)]

    def ge(self, value: Any) -> List[int]:
        return self.handles[bisect.bisect_left(self.values, value):]


class _Slot:
    """Candidate postings for one attribute within one shape group."""

    __slots__ = ("eq_buckets", "eq_sorted", "up_sorted", "lo_sorted", "other")

    def __init__(self) -> None:
        #: value_key -> handles with a single ``= value`` constraint.
        self.eq_buckets: Dict[Any, Set[int]] = {}
        #: family -> sorted equality operands (for range-vs-eq pruning).
        self.eq_sorted: Dict[str, _Sorted] = {}
        #: family -> sorted upper bounds (``<`` / ``<=`` operands).
        self.up_sorted: Dict[str, _Sorted] = {}
        #: family -> sorted lower bounds (``>`` / ``>=`` operands).
        self.lo_sorted: Dict[str, _Sorted] = {}
        #: Conservative catch-all: always candidates.
        self.other: Set[int] = set()

    def add(self, tag: str, operand: Any, handle: int) -> None:
        if tag is _EQ:
            self.eq_buckets.setdefault(value_key(operand), set()).add(handle)
            if _orderable(operand):
                self.eq_sorted.setdefault(_family(operand), _Sorted()).add(
                    operand, handle
                )
        elif tag is _UP:
            self.up_sorted.setdefault(_family(operand), _Sorted()).add(
                operand, handle
            )
        elif tag is _LO:
            self.lo_sorted.setdefault(_family(operand), _Sorted()).add(
                operand, handle
            )
        else:
            self.other.add(handle)

    def discard(self, tag: str, operand: Any, handle: int) -> None:
        if tag is _EQ:
            key = value_key(operand)
            bucket = self.eq_buckets.get(key)
            if bucket is not None:
                bucket.discard(handle)
                if not bucket:
                    del self.eq_buckets[key]
            if _orderable(operand):
                sorted_ = self.eq_sorted.get(_family(operand))
                if sorted_ is not None:
                    sorted_.remove(operand, handle)
        elif tag is _UP:
            sorted_ = self.up_sorted.get(_family(operand))
            if sorted_ is not None:
                sorted_.remove(operand, handle)
        elif tag is _LO:
            sorted_ = self.lo_sorted.get(_family(operand))
            if sorted_ is not None:
                sorted_.remove(operand, handle)
        else:
            self.other.discard(handle)

    # -- covered_by(f): stored g with g.covers(f); premise is f's single
    # constraint, conclusion is the stored one.  A stored ``= w`` needs
    # w == v; a stored upper bound needs operand >= v (or >= u); a stored
    # lower bound the mirror image.  "other" always survives.

    def count_covering(self, tag: str, operand: Any) -> int:
        count = len(self.other)
        if tag is _EQ:
            count += len(self.eq_buckets.get(value_key(operand), ()))
            if _orderable(operand):
                family = _family(operand)
                if family in self.up_sorted:
                    count += self.up_sorted[family].count_ge(operand)
                if family in self.lo_sorted:
                    count += self.lo_sorted[family].count_le(operand)
        elif tag is _UP:
            family = _family(operand)
            if family in self.up_sorted:
                count += self.up_sorted[family].count_ge(operand)
        elif tag is _LO:
            family = _family(operand)
            if family in self.lo_sorted:
                count += self.lo_sorted[family].count_le(operand)
        return count

    def covering_candidates(self, tag: str, operand: Any) -> Set[int]:
        candidates = set(self.other)
        if tag is _EQ:
            candidates.update(self.eq_buckets.get(value_key(operand), ()))
            if _orderable(operand):
                family = _family(operand)
                if family in self.up_sorted:
                    candidates.update(self.up_sorted[family].ge(operand))
                if family in self.lo_sorted:
                    candidates.update(self.lo_sorted[family].le(operand))
        elif tag is _UP:
            family = _family(operand)
            if family in self.up_sorted:
                candidates.update(self.up_sorted[family].ge(operand))
        elif tag is _LO:
            family = _family(operand)
            if family in self.lo_sorted:
                candidates.update(self.lo_sorted[family].le(operand))
        return candidates

    # -- covers_of(f): stored g with f.covers(g); premise is the stored
    # constraint, conclusion is f's.  Only equalities can imply ``= v``;
    # bounds and equalities below u can imply ``< u`` / ``<= u``.

    def count_covered(self, tag: str, operand: Any) -> int:
        count = len(self.other)
        if tag is _EQ:
            count += len(self.eq_buckets.get(value_key(operand), ()))
        elif tag is _UP:
            family = _family(operand)
            if family in self.up_sorted:
                count += self.up_sorted[family].count_le(operand)
            if family in self.eq_sorted:
                count += self.eq_sorted[family].count_le(operand)
        elif tag is _LO:
            family = _family(operand)
            if family in self.lo_sorted:
                count += self.lo_sorted[family].count_ge(operand)
            if family in self.eq_sorted:
                count += self.eq_sorted[family].count_ge(operand)
        return count

    def covered_candidates(self, tag: str, operand: Any) -> Set[int]:
        candidates = set(self.other)
        if tag is _EQ:
            candidates.update(self.eq_buckets.get(value_key(operand), ()))
        elif tag is _UP:
            family = _family(operand)
            if family in self.up_sorted:
                candidates.update(self.up_sorted[family].le(operand))
            if family in self.eq_sorted:
                candidates.update(self.eq_sorted[family].le(operand))
        elif tag is _LO:
            family = _family(operand)
            if family in self.lo_sorted:
                candidates.update(self.lo_sorted[family].ge(operand))
            if family in self.eq_sorted:
                candidates.update(self.eq_sorted[family].ge(operand))
        return candidates


class _Group:
    """All stored satisfiable filters sharing one shape."""

    __slots__ = ("shape", "members", "slots")

    def __init__(self, shape: FrozenSet[str]) -> None:
        self.shape = shape
        #: Insertion-ordered handle set.
        self.members: Dict[int, None] = {}
        self.slots: Dict[str, _Slot] = {attribute: _Slot() for attribute in shape}


def _nonall_on(filter_: Filter, attribute: str) -> Tuple[AttributeConstraint, ...]:
    return tuple(
        c
        for c in filter_.constraints
        if c.attribute == attribute and c.operator is not ALL
    )


class CoveringIndex:
    """Incrementally maintained subsumption structure over filters.

    Query results are exact (identical to naive pairwise
    ``Filter.covers`` over the stored set) and deterministic: filters
    come back in insertion order.  ``covers_checks`` counts the pairwise
    verifications actually performed — the pruning factor relative to a
    naive scan is ``len(index)`` minus that, per query.
    """

    def __init__(self) -> None:
        self._handles: Dict[Filter, int] = {}
        self._by_handle: Dict[int, Filter] = {}
        self._groups: Dict[FrozenSet[str], _Group] = {}
        #: Handle of the stored ``fF``, if any (at most one: filters are
        #: deduplicated by equality and every ``fF`` compares equal).
        self._bottom: Optional[int] = None
        #: Strict-cover adjacency: handle -> handles strictly covering it.
        self._scovered_by: Dict[int, Set[int]] = {}
        self._scovers: Dict[int, Set[int]] = {}
        self._next_handle = 0
        #: Pairwise ``covers`` verifications performed (instrumentation).
        self.covers_checks = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._handles)

    def __contains__(self, filter_: Filter) -> bool:
        return filter_ in self._handles

    def filters(self) -> Iterator[Filter]:
        """Stored filters in insertion order."""
        for handle in sorted(self._by_handle):
            yield self._by_handle[handle]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def covered_by(self, filter_: Filter) -> List[Filter]:
        """Stored filters ``g`` with ``g.covers(filter_)``, insertion order.

        A stored copy of ``filter_`` itself is included (covering is
        reflexive), matching the naive pairwise answer exactly.
        """
        return self._materialize(self._covered_by_handles(filter_))

    def covers_of(self, filter_: Filter) -> List[Filter]:
        """Stored filters ``g`` with ``filter_.covers(g)``, insertion order."""
        return self._materialize(self._covers_of_handles(filter_))

    def maximal(self) -> List[Filter]:
        """Stored filters not strictly covered by another stored filter.

        Mutually covering (equivalent) filters do not exclude each other:
        strictness requires covering without being covered back.
        """
        return self._materialize(
            {h for h, above in self._scovered_by.items() if not above}
        )

    def is_maximal(self, filter_: Filter) -> bool:
        handle = self._handles.get(filter_)
        if handle is None:
            raise KeyError(f"not indexed: {filter_}")
        return not self._scovered_by[handle]

    def _materialize(self, handles: Set[int]) -> List[Filter]:
        return [self._by_handle[h] for h in sorted(handles)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, filter_: Filter) -> bool:
        """Index ``filter_``; False when already present."""
        if filter_ in self._handles:
            return False
        covering = self._covered_by_handles(filter_)
        covered = self._covers_of_handles(filter_)

        handle = self._next_handle
        self._next_handle += 1
        self._handles[filter_] = handle
        self._by_handle[handle] = filter_
        if filter_.matches_nothing:
            self._bottom = handle
        else:
            shape = filter_shape(filter_)
            group = self._groups.get(shape)
            if group is None:
                group = self._groups[shape] = _Group(shape)
            group.members[handle] = None
            for attribute in shape:
                tag, operand = _classify(_nonall_on(filter_, attribute))
                group.slots[attribute].add(tag, operand, handle)

        mutual = covering & covered
        self._scovered_by[handle] = above = covering - mutual
        self._scovers[handle] = below = covered - mutual
        for other in above:
            self._scovers[other].add(handle)
        for other in below:
            self._scovered_by[other].add(handle)
        return True

    def discard(self, filter_: Filter) -> bool:
        """Remove ``filter_``; False when not present."""
        handle = self._handles.pop(filter_, None)
        if handle is None:
            return False
        del self._by_handle[handle]
        if handle == self._bottom:
            self._bottom = None
        else:
            shape = filter_shape(filter_)
            group = self._groups[shape]
            del group.members[handle]
            for attribute in shape:
                tag, operand = _classify(_nonall_on(filter_, attribute))
                group.slots[attribute].discard(tag, operand, handle)
            if not group.members:
                del self._groups[shape]
        for other in self._scovers.pop(handle):
            self._scovered_by[other].discard(handle)
        for other in self._scovered_by.pop(handle):
            self._scovers[other].discard(handle)
        return True

    # ------------------------------------------------------------------
    # Pruned candidate enumeration + verification
    # ------------------------------------------------------------------

    def _covered_by_handles(self, filter_: Filter) -> Set[int]:
        if filter_.matches_nothing:
            # Everything covers fF — no verification needed.
            return set(self._by_handle)
        shape = filter_shape(filter_)
        classes = {
            attribute: _classify(_nonall_on(filter_, attribute))
            for attribute in shape
        }
        result: Set[int] = set()
        for group_shape, group in self._groups.items():
            if not group_shape <= shape:
                continue
            if not group_shape:
                # ALL-only filters cover every satisfiable filter.
                candidates: Set[int] = set(group.members)
            else:
                # A query attribute classified "other" (multi-constraint
                # conjunction, NE, ...) can imply anything — e.g. an
                # interval proof from two bounds — so the whole group
                # stays candidate there.
                best_attribute = min(
                    group_shape,
                    key=lambda a: (
                        len(group.members)
                        if classes[a][0] is _OTHER
                        else group.slots[a].count_covering(*classes[a])
                    ),
                )
                if classes[best_attribute][0] is _OTHER:
                    candidates = set(group.members)
                else:
                    candidates = group.slots[best_attribute].covering_candidates(
                        *classes[best_attribute]
                    )
            for handle in candidates:
                self.covers_checks += 1
                if self._by_handle[handle].covers(filter_):
                    result.add(handle)
        return result

    def _covers_of_handles(self, filter_: Filter) -> Set[int]:
        result: Set[int] = set()
        if self._bottom is not None:
            # Every filter covers fF.
            result.add(self._bottom)
        if filter_.matches_nothing:
            return result
        shape = filter_shape(filter_)
        classes = {
            attribute: _classify(_nonall_on(filter_, attribute))
            for attribute in shape
        }
        for group_shape, group in self._groups.items():
            if not shape <= group_shape:
                continue
            if not shape:
                candidates: Set[int] = set(group.members)
            else:
                best_attribute = min(
                    shape,
                    key=lambda a: (
                        len(group.members)
                        if classes[a][0] is _OTHER
                        else group.slots[a].count_covered(*classes[a])
                    ),
                )
                if classes[best_attribute][0] is _OTHER:
                    candidates = set(group.members)
                else:
                    candidates = group.slots[best_attribute].covered_candidates(
                        *classes[best_attribute]
                    )
            for handle in candidates:
                self.covers_checks += 1
                if filter_.covers(self._by_handle[handle]):
                    result.add(handle)
        return result

    def __repr__(self) -> str:
        return (
            f"CoveringIndex({len(self)} filters, "
            f"{len(self._groups)} shapes, {len(self.maximal())} maximal)"
        )
