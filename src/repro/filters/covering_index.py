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
   ordering bounds (sorted operand runs, bisected), and an "other"
   catch-all.  Single-constraint implications only hold along known
   operand orderings — e.g. ``a < x`` can imply ``a < u`` only when
   ``x <= u`` — so a bisect yields a complete candidate superset.
   Buckets and runs follow the value rules of
   :mod:`repro.filters.operators`: a bucket is keyed by ``value_key``
   (whose equality is exactly ``=``), and a run, that module's
   ``SortedRun``, holds one ``operand_family``.
   Anything unclassifiable (multi-constraint conjunctions, ``NE``,
   ``PREFIX``, ``EXISTS``, non-orderable operands) conservatively stays a
   candidate, preserving completeness relative to ``Filter.covers``.
   A query reads the postings of every attribute it can prune on and
   keeps their intersection: the smallest posting first, then each
   next one filtering the survivors.
3. **Verification.**  Surviving candidates get the full pairwise
   ``covers`` check (counted in :attr:`CoveringIndex.covers_checks`), so
   the result is *exactly* the pairwise answer — the pruning is a pure
   speedup, never a semantic change.  The query filter is grouped by
   attribute and classified once per query, and a ``covered_by``
   verifies every candidate against that one grouping
   (:meth:`~repro.filters.filter.Filter.covers_grouped`).

The index also maintains the *maximal* filters (those not strictly
covered by another stored filter) incrementally: each insert/remove
updates a strict-cover adjacency, so :meth:`maximal` is a read.
"""

import bisect
from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import (
    ALL,
    EQ,
    GE,
    GT,
    LE,
    LT,
    SortedRun,
    hashable,
    is_nan,
    operand_family,
    value_key,
)


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
    ``EXISTS``, unhashable operands, bounds outside an
    :func:`~repro.filters.operators.operand_family`) falls into the
    ``other`` catch-all, which every query keeps as a candidate.  So
    does a NaN operand: it equals nothing, itself included, so no bucket
    or sorted run can find it again.
    """
    if len(constraints) != 1:
        return (_OTHER, None)
    constraint = constraints[0]
    operator, operand = constraint.operator, constraint.operand
    if operator is EQ and hashable(operand) and not is_nan(operand):
        return (_EQ, operand)
    if operand_family(operand) is not None:
        if operator is LT or operator is LE:
            return (_UP, operand)
        if operator is GT or operator is GE:
            return (_LO, operand)
    return (_OTHER, None)


class _Sorted(SortedRun):
    """The sorted ``(operand, handle)`` run of one operand family."""

    __slots__ = ()

    def count_le(self, value: Any) -> int:
        return bisect.bisect_right(self.operands, value)

    def count_ge(self, value: Any) -> int:
        return len(self.operands) - bisect.bisect_left(self.operands, value)

    def le(self, value: Any) -> List[int]:
        """Handles whose operand is ``<= value`` (boundary included: the
        verification pass sorts out strict-vs-inclusive implications)."""
        return self.ids[: bisect.bisect_right(self.operands, value)]

    def ge(self, value: Any) -> List[int]:
        return self.ids[bisect.bisect_left(self.operands, value):]


class _Slot:
    """Candidate postings for one attribute within one shape group."""

    __slots__ = ("eq_buckets", "eq_sorted", "up_sorted", "lo_sorted", "other", "entries")

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
        #: handle -> its ``(tag, operand)``: where it is posted.
        self.entries: Dict[int, Tuple[str, Any]] = {}

    def _runs(self, tag: str) -> Dict[str, _Sorted]:
        if tag is _EQ:
            return self.eq_sorted
        return self.up_sorted if tag is _UP else self.lo_sorted

    def add(self, tag: str, operand: Any, handle: int) -> None:
        self.entries[handle] = (tag, operand)
        if tag is _OTHER:
            self.other.add(handle)
            return
        if tag is _EQ:
            self.eq_buckets.setdefault(value_key(operand), set()).add(handle)
        family = operand_family(operand)
        if family is not None:
            self._runs(tag).setdefault(family, _Sorted()).insert(operand, handle)

    def discard(self, handle: int) -> None:
        tag, operand = self.entries.pop(handle)
        if tag is _OTHER:
            self.other.discard(handle)
            return
        if tag is _EQ:
            key = value_key(operand)
            bucket = self.eq_buckets.get(key)
            if bucket is not None:
                bucket.discard(handle)
                if not bucket:
                    del self.eq_buckets[key]
        run = self._runs(tag).get(operand_family(operand))
        if run is not None:
            run.remove(operand, handle)

    def _wanted(self, covering: bool, tag: str) -> Tuple[Tuple[Dict[str, _Sorted], bool], ...]:
        """The run families a query reads, each with whether it keeps
        the operands ``>= operand`` (else ``<=``).

        ``covering`` (``covered_by(f)``: stored g with g.covers(f)): the
        premise is f's single constraint, the conclusion the stored one,
        so a stored upper bound needs operand >= v (or >= u), a stored
        lower bound the mirror image.  Otherwise (``covers_of(f)``: the
        premise is the stored constraint) only equalities can imply
        ``= v``, and bounds and equalities below u can imply ``< u`` /
        ``<= u``.  The equality bucket and "other" are added by the
        caller.
        """
        if tag is _EQ:
            return ((self.up_sorted, True), (self.lo_sorted, False)) if covering else ()
        if tag is _UP:
            return (
                ((self.up_sorted, True),)
                if covering
                else ((self.up_sorted, False), (self.eq_sorted, False))
            )
        return (
            ((self.lo_sorted, False),)
            if covering
            else ((self.lo_sorted, True), (self.eq_sorted, True))
        )

    def posting(
        self, covering: bool, tag: str, operand: Any
    ) -> Tuple[int, Collection[int], List[Tuple[_Sorted, bool]]]:
        """What a query reads here: how many handles it keeps (a handle
        sits in one bucket or run per attribute, so they are disjoint),
        the equality bucket, and the sorted runs it bisects, each with
        whether it keeps the operands ``>= operand`` (see
        :meth:`_wanted`).  "Other" is always kept besides."""
        bucket = self.eq_buckets.get(value_key(operand), ()) if tag is _EQ else ()
        count = len(self.other) + len(bucket)
        bounds = []
        wanted = [pair for pair in self._wanted(covering, tag) if pair[0]]
        if wanted:
            family = operand_family(operand)
            for runs, at_least in wanted:
                run = runs.get(family)
                if run is not None:
                    bounds.append((run, at_least))
                    count += run.count_ge(operand) if at_least else run.count_le(operand)
        return count, bucket, bounds

    def candidates(
        self, bucket: Collection[int], bounds: List[Tuple[_Sorted, bool]], operand: Any
    ) -> Set[int]:
        """The handles of a :meth:`posting`."""
        candidates = set(self.other)
        candidates.update(bucket)
        for run, at_least in bounds:
            candidates.update(run.ge(operand) if at_least else run.le(operand))
        return candidates

    def intersect(
        self,
        candidates: Set[int],
        bucket: Collection[int],
        bounds: List[Tuple[_Sorted, bool]],
        operand: Any,
    ) -> Set[int]:
        """The ``candidates`` that a :meth:`posting` holds too: a set
        intersection where it reads no sorted run (an equality against
        equality postings), else each handle's run position read off its
        entry instead of slicing the runs."""
        other = self.other
        if bounds:
            return {
                h
                for h in candidates
                if h in other or h in bucket or self._within(h, bounds, operand)
            }
        if other:
            return {h for h in candidates if h in other or h in bucket}
        return candidates.intersection(bucket)

    def _within(
        self, handle: int, bounds: List[Tuple[_Sorted, bool]], operand: Any
    ) -> bool:
        """Whether ``handle`` lies in the part of ``bounds`` a
        :meth:`posting` reads."""
        tag, held = self.entries[handle]
        if tag is _OTHER:
            return False
        run = self._runs(tag).get(operand_family(held))
        for bound, at_least in bounds:
            if bound is run:
                return held >= operand if at_least else held <= operand
        return False


class _Group:
    """All stored satisfiable filters sharing one shape."""

    __slots__ = ("shape", "members", "slots")

    def __init__(self, shape: FrozenSet[str]) -> None:
        self.shape = shape
        #: Insertion-ordered handle set.
        self.members: Dict[int, None] = {}
        self.slots: Dict[str, _Slot] = {attribute: _Slot() for attribute in shape}


#: A filter's constraints by attribute (filter order within each), and
#: its classification on each attribute of its shape among them.
_Query = Tuple[Dict[str, List[AttributeConstraint]], Dict[str, Tuple[str, Any]]]


def _query(filter_: Filter, attributes: Optional[Dict[str, int]] = None) -> _Query:
    """Group and classify a satisfiable filter once, on ``attributes``
    only (every attribute of its own when ``None``)."""
    by_attribute: Dict[str, List[AttributeConstraint]] = {}
    for constraint in filter_.constraints:
        attribute = constraint.attribute
        if attributes is None or attribute in attributes:
            held = by_attribute.get(attribute)
            if held is None:
                by_attribute[attribute] = [constraint]
            else:
                held.append(constraint)
    classes = {}
    for attribute, held in by_attribute.items():
        shaped = [c for c in held if c.operator is not ALL]
        if shaped:
            classes[attribute] = _classify(shaped)
    return by_attribute, classes


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
        #: attribute -> how many shape groups use it: all a
        #: ``covered_by`` request is grouped on.
        self._used: Dict[str, int] = {}
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
        query = None if filter_.matches_nothing else _query(filter_)
        covering = self._covered_by_handles(filter_, query)
        covered = self._covers_of_handles(filter_, query)

        handle = self._next_handle
        self._next_handle += 1
        self._handles[filter_] = handle
        self._by_handle[handle] = filter_
        if query is None:
            self._bottom = handle
        else:
            classes = query[1]
            shape = frozenset(classes)
            group = self._groups.get(shape)
            if group is None:
                group = self._groups[shape] = _Group(shape)
                for attribute in shape:
                    self._used[attribute] = self._used.get(attribute, 0) + 1
            group.members[handle] = None
            for attribute, (tag, operand) in classes.items():
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
            for slot in group.slots.values():
                slot.discard(handle)
            if not group.members:
                del self._groups[shape]
                for attribute in shape:
                    self._used[attribute] -= 1
                    if not self._used[attribute]:
                        del self._used[attribute]
        for other in self._scovers.pop(handle):
            self._scovered_by[other].discard(handle)
        for other in self._scovered_by.pop(handle):
            self._scovers[other].discard(handle)
        return True

    # ------------------------------------------------------------------
    # Pruned candidate enumeration + verification
    # ------------------------------------------------------------------

    def _covered_by_handles(self, filter_: Filter, query: Optional[_Query] = None) -> Set[int]:
        """``query`` is the filter's own (:meth:`add` has it); else it is
        grouped here, on the attributes the stored shapes use: a group
        can only cover it where its shape lies inside the request's, and
        verifying a stored filter reads the request's constraints on
        that filter's shape."""
        if filter_.matches_nothing:
            # Everything covers fF — no verification needed.
            return set(self._by_handle)
        result: Set[int] = set()
        if not self._groups:
            return result
        by_attribute, classes = query if query is not None else _query(filter_, self._used)
        by_handle = self._by_handle
        for group_shape, group in self._groups.items():
            if not group_shape <= classes.keys():
                continue
            for handle in self._candidates(group, True, classes, group_shape):
                self.covers_checks += 1
                if by_handle[handle].covers_grouped(by_attribute):
                    result.add(handle)
        return result

    def _covers_of_handles(self, filter_: Filter, query: Optional[_Query] = None) -> Set[int]:
        result: Set[int] = set()
        if self._bottom is not None:
            # Every filter covers fF.
            result.add(self._bottom)
        if filter_.matches_nothing or not self._groups:
            return result
        classes = (query if query is not None else _query(filter_))[1]
        shape = classes.keys()
        for group_shape, group in self._groups.items():
            if not shape <= group_shape:
                continue
            for handle in self._candidates(group, False, classes, shape):
                self.covers_checks += 1
                if filter_.covers(self._by_handle[handle]):
                    result.add(handle)
        return result

    @staticmethod
    def _candidates(
        group: _Group,
        covering: bool,
        classes: Dict[str, Tuple[str, Any]],
        attributes: Iterable[str],
    ) -> Iterable[int]:
        """The members of ``group`` that every attribute's postings hold.

        The attributes a request classified "other" (a multi-constraint
        conjunction, ``NE``, ...) prune nothing: such a premise can
        imply anything — e.g. an interval proof from two bounds.  The
        rest are ranked by posting size; the smallest posting is read,
        and each next one only filters the survivors
        (:meth:`_Slot.intersect`), until one holds the whole group.
        """
        members = group.members
        postings = []
        for attribute in attributes:
            tag, operand = classes[attribute]
            if tag is not _OTHER:
                slot = group.slots[attribute]
                postings.append((*slot.posting(covering, tag, operand), slot, operand))
        if not postings:
            return members
        postings.sort(key=lambda posting: posting[0])
        count, bucket, bounds, slot, operand = postings[0]
        if count >= len(members):
            return members
        candidates = slot.candidates(bucket, bounds, operand)
        for count, bucket, bounds, slot, operand in postings[1:]:
            if not candidates or count >= len(members):
                break
            candidates = slot.intersect(candidates, bucket, bounds, operand)
        return candidates

    def __repr__(self) -> str:
        return (
            f"CoveringIndex({len(self)} filters, "
            f"{len(self._groups)} shapes, {len(self.maximal())} maximal)"
        )
