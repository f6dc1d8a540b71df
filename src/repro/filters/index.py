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

Equality buckets are keyed, and sorted runs filled, by the value rules
of :mod:`repro.filters.operators` (``value_key``, ``operand_family``,
``hashable``, ``is_nan``); the filter→destination table is the one
:class:`~repro.filters.engine.MatchEngine` keeps, and this engine only
indexes a filter in :meth:`CountingIndex._register`.
"""

import bisect
from collections import defaultdict
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import MatchEngine
from repro.filters.filter import Filter
from repro.filters.operators import (
    ALL,
    EQ,
    EXISTS,
    GE,
    GT,
    LE,
    LT,
    SortedRun,
    hashable,
    is_nan,
    operand_family,
    value_key,
    values_comparable,
)


class _SortedOperands(SortedRun):
    """The sorted ``(operand, handle)`` run of one ordering operator."""

    __slots__ = ()

    def satisfied_lt(self, value: Any) -> List[int]:
        """Handles of ``attr < operand`` constraints satisfied by ``value``."""
        return self.ids[bisect.bisect_right(self.operands, value):]

    def satisfied_le(self, value: Any) -> List[int]:
        return self.ids[bisect.bisect_left(self.operands, value):]

    def satisfied_gt(self, value: Any) -> List[int]:
        return self.ids[: bisect.bisect_left(self.operands, value)]

    def satisfied_ge(self, value: Any) -> List[int]:
        return self.ids[: bisect.bisect_right(self.operands, value)]

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
        #: sorted run can hold (family-mismatched, boolean, NaN).
        self.linear: List[Tuple[AttributeConstraint, int]] = []

    def _sorted_for(self, constraint: AttributeConstraint) -> Optional[_SortedOperands]:
        """The sorted run an ordering constraint belongs in, if any: the
        operator's, when the operand is of the family it holds (the
        first operand's fixes it)."""
        operand = constraint.operand
        if operand_family(operand) is None:
            return None
        run = {LT: self.lt, LE: self.le, GT: self.gt, GE: self.ge}.get(
            constraint.operator
        )
        return run if run is not None and run.comparable_with(operand) else None

    def insert(self, constraint: AttributeConstraint, handle: int) -> None:
        op, operand = constraint.operator, constraint.operand
        if op is EQ and hashable(operand) and not is_nan(operand):
            self.eq.setdefault(value_key(operand), []).append(handle)
            return
        if op is EXISTS:
            self.exists.append(handle)
            return
        sorted_for = self._sorted_for(constraint)
        if sorted_for is not None:
            sorted_for.insert(operand, handle)
            return
        self.linear.append((constraint, handle))

    def remove(self, constraint: AttributeConstraint, handle: int) -> None:
        op, operand = constraint.operator, constraint.operand
        if op is EQ and hashable(operand) and not is_nan(operand):
            key = value_key(operand)
            handles = self.eq.get(key)
            if handles and handle in handles:
                handles.remove(handle)
                if not handles:
                    del self.eq[key]
                return
        if op is EXISTS and handle in self.exists:
            self.exists.remove(handle)
            return
        sorted_for = self._sorted_for(constraint)
        if sorted_for is not None and sorted_for.remove(operand, handle):
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
        if hashable(value):
            for handle in self.eq.get(value_key(value), ()):  # equality probe
                counts[handle] += 1
                probes += 1
        # A NaN value satisfies no ordering constraint, and a bisect
        # with it would harvest half the run.
        if operand_family(value) is not None:
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


class CountingIndex(MatchEngine):
    """Drop-in alternative to :class:`~repro.filters.table.FilterTable`.

    Exposes the same ``insert`` / ``remove`` / ``match`` / ``destinations``
    surface (:class:`~repro.filters.engine.MatchEngine`) so broker nodes
    can use either engine.
    """

    def __init__(self) -> None:
        super().__init__()
        self._attributes: Dict[str, _AttributeIndex] = {}
        self._required: Dict[int, int] = {}
        #: Filters with zero countable constraints (fT / all-wildcard).
        self._always: Set[int] = set()
        #: Scratch counter dict reused across ``match`` calls.
        self._counts: Dict[int, int] = defaultdict(int)
        self.evaluations = 0

    def _register(self, filter_: Filter, handle: int) -> None:
        countable = [c for c in filter_.constraints if c.operator is not ALL]
        self._required[handle] = len(countable)
        if not countable:
            self._always.add(handle)
        for constraint in countable:
            index = self._attributes.get(constraint.attribute)
            if index is None:
                index = self._attributes[constraint.attribute] = _AttributeIndex()
            index.insert(constraint, handle)

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
