"""Counting-based filter matching index.

The paper defers "efficient indexing and matching techniques" to related
work (Section 4.6); this module supplies one so the library is usable at
the subscription counts the paper targets (millions).  It implements the
classic *counting algorithm* for conjunctive subscriptions:

1. every constraint of every filter is registered in a per-attribute
   sub-index (hash map for equality, sorted operand arrays for ordering
   operators, linear lists for the rest);
2. matching an event walks only the event's own attributes, collecting
   satisfied constraints and incrementing a per-filter counter;
3. a filter matches iff its counter reaches the number of (non-trivial)
   constraints it registered.

The semantics are identical to :class:`repro.filters.table.FilterTable`
(which the test suite uses as an oracle); only the complexity differs:
matching is proportional to the number of *satisfied* constraints rather
than the number of filters.  Selected with ``engine="index"``; the
default is :class:`repro.filters.compiled.CompiledMatchEngine`, which
replaces the per-constraint bookkeeping with per-attribute bitmaps.
"""

import bisect
from collections import defaultdict
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import MatchEngine, is_nan, value_key
from repro.filters.filter import Filter
from repro.filters.operators import ALL, EQ, EXISTS, GE, GT, LE, LT, values_comparable


class _SortedOperands:
    """Parallel sorted arrays of (operand, handle) for one ordering operator."""

    __slots__ = ("operands", "handles")

    def __init__(self) -> None:
        self.operands: List[Any] = []
        self.handles: List[int] = []

    def insert(self, operand: Any, handle: int) -> bool:
        """Insert keeping sort order; False when the operand family differs
        from what the array already holds (caller falls back to linear)."""
        if self.operands and not values_comparable(self.operands[0], operand):
            return False
        position = bisect.bisect_right(self.operands, operand)
        self.operands.insert(position, operand)
        self.handles.insert(position, handle)
        return True

    def remove(self, operand: Any, handle: int) -> bool:
        # One bisect to the start of the operand's run, then an
        # early-exit scan bounded by the run itself: O(log n + run)
        # instead of a second full bisect plus an unconditional
        # whole-run walk — the run is usually tiny even in huge tables.
        operands = self.operands
        position = bisect.bisect_left(operands, operand)
        end = len(operands)
        while position < end and operands[position] == operand:
            if self.handles[position] == handle:
                del operands[position]
                del self.handles[position]
                return True
            position += 1
        return False

    def satisfied_lt(self, value: Any) -> List[int]:
        """Handles of ``attr < operand`` constraints satisfied by ``value``."""
        return self.handles[bisect.bisect_right(self.operands, value):]

    def satisfied_le(self, value: Any) -> List[int]:
        return self.handles[bisect.bisect_left(self.operands, value):]

    def satisfied_gt(self, value: Any) -> List[int]:
        return self.handles[: bisect.bisect_left(self.operands, value)]

    def satisfied_ge(self, value: Any) -> List[int]:
        return self.handles[: bisect.bisect_right(self.operands, value)]

    def comparable_with(self, value: Any) -> bool:
        return not self.operands or values_comparable(self.operands[0], value)


class _AttributeIndex:
    """All constraints registered on one attribute."""

    __slots__ = ("eq", "lt", "le", "gt", "ge", "exists", "linear")

    def __init__(self) -> None:
        self.eq: Dict[Any, List[int]] = {}
        self.lt = _SortedOperands()
        self.le = _SortedOperands()
        self.gt = _SortedOperands()
        self.ge = _SortedOperands()
        self.exists: List[int] = []
        #: Fallback for NE/PREFIX/CONTAINS and operands no bucket or
        #: sorted array can hold (family-mismatched, boolean, NaN).
        self.linear: List[Tuple[AttributeConstraint, int]] = []

    def _sorted_for(self, constraint: AttributeConstraint) -> Optional[_SortedOperands]:
        """The sorted array an ordering constraint belongs in, if any."""
        if isinstance(constraint.operand, bool) or is_nan(constraint.operand):
            return None
        return {LT: self.lt, LE: self.le, GT: self.gt, GE: self.ge}.get(
            constraint.operator
        )

    def insert(self, constraint: AttributeConstraint, handle: int) -> None:
        op = constraint.operator
        if op is EQ and _eq_indexable(constraint.operand):
            self.eq.setdefault(_eq_key(constraint.operand), []).append(handle)
            return
        if op is EXISTS:
            self.exists.append(handle)
            return
        sorted_for = self._sorted_for(constraint)
        if sorted_for is not None and sorted_for.insert(constraint.operand, handle):
            return
        self.linear.append((constraint, handle))

    def remove(self, constraint: AttributeConstraint, handle: int) -> None:
        op = constraint.operator
        if op is EQ and _eq_indexable(constraint.operand):
            handles = self.eq.get(_eq_key(constraint.operand))
            if handles and handle in handles:
                handles.remove(handle)
                if not handles:
                    del self.eq[_eq_key(constraint.operand)]
                return
        if op is EXISTS and handle in self.exists:
            self.exists.remove(handle)
            return
        sorted_for = self._sorted_for(constraint)
        if (
            sorted_for is not None
            and sorted_for.comparable_with(constraint.operand)
            and sorted_for.remove(constraint.operand, handle)
        ):
            return
        for position, (existing, existing_handle) in enumerate(self.linear):
            if existing == constraint and existing_handle == handle:
                del self.linear[position]
                return

    def satisfied_by(self, value: Any, counts: Dict[int, int]) -> int:
        """Increment ``counts`` for every constraint satisfied by ``value``.

        Returns the number of constraint probes actually performed: one
        per satisfied constraint harvested from the hash/sorted/exists
        sub-indexes, plus one per linear-fallback constraint evaluated
        (satisfied or not).  The structural lookups themselves (one hash
        probe, O(log n) bisects) are bookkeeping, not constraint work.
        """
        probes = len(self.exists)
        for handle in self.exists:
            counts[handle] += 1
        if _hashable(value):
            for handle in self.eq.get(_eq_key(value), ()):  # equality probe
                counts[handle] += 1
                probes += 1
        # A NaN value satisfies no ordering constraint, and a bisect
        # with it would harvest half the array.
        if not isinstance(value, bool) and not is_nan(value):
            for structure, probe in (
                (self.lt, _SortedOperands.satisfied_lt),
                (self.le, _SortedOperands.satisfied_le),
                (self.gt, _SortedOperands.satisfied_gt),
                (self.ge, _SortedOperands.satisfied_ge),
            ):
                if structure.operands and structure.comparable_with(value):
                    for handle in probe(structure, value):
                        counts[handle] += 1
                        probes += 1
        probes += len(self.linear)
        for constraint, handle in self.linear:
            if constraint.matches_value(value, present=True):
                counts[handle] += 1
        return probes

    def is_empty(self) -> bool:
        return not (
            self.eq
            or self.exists
            or self.linear
            or self.lt.operands
            or self.le.operands
            or self.gt.operands
            or self.ge.operands
        )


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _eq_indexable(operand: Any) -> bool:
    """Whether ``= operand`` may live in the hash buckets: ``= nan``
    holds for no value, but a bucket would be found by the same NaN
    object through dict identity."""
    return _hashable(operand) and not is_nan(operand)


#: Key that separates bools from numbers (1 != True for matching); the
#: same canonicalization the routing cache fingerprints values with.
_eq_key = value_key


class CountingIndex(MatchEngine):
    """Drop-in alternative to :class:`~repro.filters.table.FilterTable`.

    Exposes the same ``insert`` / ``remove`` / ``match`` / ``destinations``
    surface (:class:`~repro.filters.engine.MatchEngine`) so broker nodes
    can use either engine.
    """

    def __init__(self) -> None:
        self._attributes: Dict[str, _AttributeIndex] = {}
        self._filters: Dict[Filter, int] = {}
        self._by_handle: Dict[int, Filter] = {}
        #: handle -> insertion-ordered destination set.
        self._ids: Dict[int, Dict[Hashable, None]] = {}
        #: Reverse map: destination -> handles it appears under, so
        #: ``remove_destination`` (disconnect / lease-expiry churn) walks
        #: only that destination's filters instead of the whole index.
        self._dests: Dict[Hashable, Set[int]] = {}
        self._required: Dict[int, int] = {}
        #: Filters with zero countable constraints (fT / all-wildcard).
        self._always: Set[int] = set()
        self._next_handle = 0
        #: Scratch counter dict reused across ``match`` calls.
        self._counts: Dict[int, int] = defaultdict(int)
        self.evaluations = 0

    def __len__(self) -> int:
        return len(self._filters)

    def __contains__(self, filter_: Filter) -> bool:
        return filter_ in self._filters

    def filters(self):
        return iter(self._filters)

    def entries(self):
        for filter_, handle in self._filters.items():
            yield filter_, tuple(self._ids[handle])

    def destinations_for(self, filter_: Filter) -> Tuple[Hashable, ...]:
        handle = self._filters.get(filter_)
        if handle is None:
            return ()
        return tuple(self._ids[handle])

    def insert(self, filter_: Filter, destination: Hashable) -> None:
        if filter_.matches_nothing:
            raise ValueError("cannot index fF (matches nothing)")
        handle = self._filters.get(filter_)
        if handle is None:
            handle = self._next_handle
            self._next_handle += 1
            self._filters[filter_] = handle
            self._by_handle[handle] = filter_
            self._ids[handle] = {}
            countable = [c for c in filter_.constraints if c.operator is not ALL]
            self._required[handle] = len(countable)
            if not countable:
                self._always.add(handle)
            for constraint in countable:
                index = self._attributes.get(constraint.attribute)
                if index is None:
                    index = self._attributes[constraint.attribute] = _AttributeIndex()
                index.insert(constraint, handle)
        ids = self._ids[handle]
        if destination not in ids:
            ids[destination] = None
            self._dests.setdefault(destination, set()).add(handle)

    def remove(self, filter_: Filter, destination: Hashable) -> bool:
        handle = self._filters.get(filter_)
        if handle is None:
            return False
        ids = self._ids[handle]
        if destination not in ids:
            return False
        del ids[destination]
        handles = self._dests[destination]
        handles.discard(handle)
        if not handles:
            del self._dests[destination]
        if not ids:
            self._unregister(filter_, handle)
        return True

    def remove_destination(self, destination: Hashable) -> int:
        handles = self._dests.get(destination)
        if not handles:
            return 0
        removed = 0
        for handle in sorted(handles):
            if self.remove(self._by_handle[handle], destination):
                removed += 1
        return removed

    def _unregister(self, filter_: Filter, handle: int) -> None:
        for constraint in filter_.constraints:
            if constraint.operator is ALL:
                continue
            index = self._attributes.get(constraint.attribute)
            if index is not None:
                index.remove(constraint, handle)
                if index.is_empty():
                    del self._attributes[constraint.attribute]
        self._always.discard(handle)
        del self._filters[filter_]
        del self._by_handle[handle]
        del self._ids[handle]
        del self._required[handle]

    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        """Matching entries, ordered by filter insertion (handle) order.

        ``evaluations`` grows by the constraint probes actually performed
        (see :meth:`_AttributeIndex.satisfied_by`) — proportional to the
        satisfied constraints, not the filter population — so LC-style
        work accounting is comparable with ``FilterTable``'s per-filter
        evaluation counting: both measure work done, and a cached hit
        upstream costs ~0.
        """
        if not self._filters:
            return []
        properties = getattr(event, "properties", event)
        counts = self._counts
        for attribute, value in properties.items():
            index = self._attributes.get(attribute)
            if index is not None:
                self.evaluations += index.satisfied_by(value, counts)
        if not counts and not self._always:
            return []
        matched = [
            handle
            for handle, count in counts.items()
            if count == self._required[handle]
        ]
        counts.clear()
        matched.extend(self._always)
        matched.sort()
        return [
            (self._by_handle[handle], tuple(self._ids[handle])) for handle in matched
        ]

    def __repr__(self) -> str:
        return f"CountingIndex({len(self)} filters, {len(self._attributes)} attributes)"
