"""Compiled bitmap matching engine — what brokers match with by default.

:class:`CountingIndex` already reduces matching to "harvest satisfied
constraints, count per filter", but every harvested constraint still
costs one interpreted Python dict increment, so an event that satisfies
many constraints (low-selectivity attributes, permissive range bounds)
pays thousands of per-handle operations.  This module compiles the
*indexable conjunctive parts* of the filter table into flat structures
evaluated with arbitrary-precision integers as bitsets, so the per-event
cost is a handful of attribute-granular bitmap operations (each a single
C-level pass over ``n/64`` machine words) instead of per-constraint
Python bookkeeping:

- every distinct stored filter owns a *slot* (a bit position);
- **equality** constraints become per-attribute hash buckets mapping
  ``value_key(operand)`` to a bitmap of the slots satisfied by that
  value;
- **ordering** constraints (``<``, ``<=``, ``>``, ``>=``) become, per
  attribute / operator / operand family, sorted operand runs with
  precomputed block-cumulative prefix (or suffix) bitmaps: one bisect
  plus one block lookup plus at most ``_BLOCK - 1`` single-bit unions
  yields the whole satisfied-slot set.  (Per-position cumulative
  bitmaps would answer in exactly one lookup but cost O(n²/64) words of
  memory — 1.25 GB at 10⁵ operands — so cumulation is materialized at
  block granularity, an explicit time/space trade documented in
  DESIGN §12.);
- **conjunction satisfaction** is attribute-granular: ``C[a]`` is the
  bitmap of slots whose filter has an indexed constraint group on
  attribute ``a``, ``F[a] = live & ~C[a]`` the live slots it leaves
  free, ``S[a]`` the slots whose group is satisfied by the event's
  value.  A slot matches the indexed tiers iff no attribute clears it:
  ``acc = (acc & S[a]) | (acc & F[a])`` for present attributes and
  ``acc &= F[a]`` for absent ones — the bitmap-intersection equivalent
  of the counting algorithm's per-handle required-count check, with the
  popcount bookkeeping replaced by word-parallel masking.  Every operand
  is non-negative, so once ``acc`` is sparse each step is as short as
  ``acc``; and attributes are probed most-selective first (the one
  expected to clear the most slots), so ``acc`` gets sparse, and
  usually empty, after the first probe;
- **residual** predicates (``NE``/``PREFIX``/``CONTAINS``, multi-
  constraint groups on one attribute, boolean, unhashable or NaN
  operands) are evaluated interpretively, but only on the candidates
  that survived every indexed tier.

Mutations never rebuild eagerly: they update cheap per-attribute source
structures (operand lists, slot sets, the bucket-size sums the probe
order is computed from) and mark the attribute *dirty*; the next match
recompiles only the dirty attributes' bitmaps (bulk bit assembly goes
through a ``bytearray`` so a full attribute rebuild is O(n/8) bytes
plus one ``int.from_bytes``), refreshes every free mask and re-sorts
the attributes.  Control-plane churn (insert / remove / lease expiry)
therefore costs amortized O(affected attributes), not a full table
recompile.

Semantics are bit-for-bit identical to :class:`CountingIndex` /
:class:`FilterTable` (the differential hypothesis suite in
``tests/filters/test_differential.py`` arbitrates).  The value rules —
which operands share a bucket, which go in a sorted run and in which —
are :mod:`repro.filters.operators`' ``value_key``, ``operand_family``,
``hashable`` and ``is_nan``, and a range tier is its ``SortedRun``; the
filter→destination table is the one
:class:`~repro.filters.engine.MatchEngine` keeps, and this engine gives
a filter its slot in :meth:`CompiledMatchEngine._register`.
"""

import bisect
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.events.base import PropertyEvent
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
)

#: Block size of the cumulative range-tier bitmaps: memory is
#: ``n / _BLOCK`` full-width bitmaps per tier, query cost is one block
#: lookup plus at most ``_BLOCK - 1`` single-bit unions.
_BLOCK = 32


def _properties_of(event: Any) -> Any:
    """The mapping an event is matched on: an exact ``PropertyEvent``'s
    own dict (the rule ``Filter.matches`` follows: a subclass may
    redefine lookup), else its ``properties``, else the event itself."""
    if type(event) is PropertyEvent:
        return event._properties
    return getattr(event, "properties", event)


def _bitmap_of(slots: Sequence[int], size: int) -> int:
    """Assemble a bitmap from slot indices via bytearray bit-setting.

    O(size/8) bytes + O(len(slots)) single-byte ORs + one
    ``int.from_bytes`` — the bulk-rebuild primitive that keeps dirty-
    attribute recompiles linear instead of quadratic (repeated
    ``bitmap |= 1 << slot`` copies the growing bitmap every time).
    """
    if not slots:
        return 0
    raw = bytearray((size >> 3) + 1)
    for slot in slots:
        raw[slot >> 3] |= 1 << (slot & 7)
    return int.from_bytes(raw, "little")


class _RangeTier(SortedRun):
    """The sorted ``(operand, slot)`` run of one (op, family) plus its
    block-cumulative bitmaps.

    ``cumulative[k]`` is the OR of the slot bits of the first
    ``k * _BLOCK`` sorted entries (``reverse=False``, the prefix form
    used by ``>`` / ``>=``) or of the entries from ``k * _BLOCK`` on
    (``reverse=True``, the suffix form used by ``<`` / ``<=``).  A
    query bisects to the satisfied run's boundary and assembles
    ``cumulative[boundary block] | partial-block bits``.
    """

    __slots__ = ("cumulative", "reverse")

    def __init__(self, reverse: bool) -> None:
        super().__init__()
        self.cumulative: List[int] = []
        self.reverse = reverse

    def recompile(self) -> None:
        """Rebuild the block-cumulative bitmaps from the sorted run."""
        slots = self.ids
        n = len(slots)
        blocks = (n + _BLOCK - 1) // _BLOCK
        self.cumulative = cumulative = [0] * (blocks + 1)
        if not n:
            return
        size = max(slots)
        running = 0
        if self.reverse:
            for k in range(blocks - 1, -1, -1):
                running |= _bitmap_of(slots[k * _BLOCK:(k + 1) * _BLOCK], size)
                cumulative[k] = running
        else:
            for k in range(1, blocks + 1):
                running |= _bitmap_of(slots[(k - 1) * _BLOCK:k * _BLOCK], size)
                cumulative[k] = running

    def satisfied_from(self, boundary: int) -> int:
        """Bitmap of slots in the satisfied run.

        For the prefix form the run is ``[0, boundary)``; for the suffix
        form it is ``[boundary, n)``.  ``boundary`` comes from a bisect.
        """
        slots = self.ids
        if self.reverse:
            if boundary >= len(slots):
                return 0
            block = (boundary + _BLOCK - 1) // _BLOCK
            result = self.cumulative[block]
            for position in range(boundary, min(block * _BLOCK, len(slots))):
                result |= 1 << slots[position]
        else:
            if boundary <= 0:
                return 0
            block = boundary // _BLOCK
            result = self.cumulative[block]
            for position in range(block * _BLOCK, boundary):
                result |= 1 << slots[position]
        return result


class _CompiledAttribute:
    """Compiled structures for every indexed constraint group on one
    attribute, rebuilt lazily while ``dirty`` is set."""

    __slots__ = (
        "eq_slots",
        "eq_bitmaps",
        "eq_total",
        "eq_square",
        "exists_slots",
        "exists_bitmap",
        "tiers",
        "tier_total",
        "constrained",
        "free",
        "dirty",
    )

    #: (operator, tier key, suffix?) rows of the range tier layout.
    _TIER_OPS = ((LT, "lt", True), (LE, "le", True), (GT, "gt", False), (GE, "ge", False))

    def __init__(self) -> None:
        #: value_key -> insertion-ordered slot dict (the mutation-side
        #: source of truth; bitmaps are compiled from it).
        self.eq_slots: Dict[Any, Dict[int, None]] = {}
        self.eq_bitmaps: Dict[Any, int] = {}
        #: Σ|bucket| and Σ|bucket|² over ``eq_slots``, kept by
        #: insert/remove for :meth:`clears`.
        self.eq_total = 0
        self.eq_square = 0
        self.exists_slots: Dict[int, None] = {}
        self.exists_bitmap = 0
        #: (tier key, family) -> _RangeTier.
        self.tiers: Dict[Tuple[str, str], _RangeTier] = {}
        #: Slots held by the range tiers, summed.
        self.tier_total = 0
        #: Bitmap of slots with an indexed group on this attribute (C[a]).
        self.constrained = 0
        #: Live slots without one (F[a] = live & ~C[a]); the engine
        #: refreshes it whenever its live set changes.
        self.free = 0
        self.dirty = True

    def is_empty(self) -> bool:
        return not (self.eq_total or self.exists_slots or self.tier_total)

    def clears(self) -> float:
        """Slots a probe of a present value is expected to clear.

        Every slot holds at most one indexed group here, so
        ``popcount(C[a])`` is the three totals, and the expected
        survivors are every ``exists`` slot, half the range-tier slots,
        and for equality the bucket of a value drawn as often as the
        stored operands are, ``Σ|bucket|² / Σ|bucket|``; the ``exists``
        slots cancel out.  An attribute every slot shares one operand of
        clears nothing; one with a bucket per slot clears all but one.
        """
        cleared = self.tier_total / 2
        if self.eq_total:
            cleared += self.eq_total - self.eq_square / self.eq_total
        return cleared

    # -- mutation side (cheap; bitmaps rebuilt lazily) -------------------

    def insert(self, constraint: AttributeConstraint, slot: int) -> None:
        op = constraint.operator
        if op is EQ:
            slots = self.eq_slots.setdefault(value_key(constraint.operand), {})
            self.eq_square += 2 * len(slots) + 1
            self.eq_total += 1
            slots[slot] = None
        elif op is EXISTS:
            self.exists_slots[slot] = None
        else:
            self._tier_for(constraint).insert(constraint.operand, slot)
            self.tier_total += 1
        self.dirty = True

    def remove(self, constraint: AttributeConstraint, slot: int) -> None:
        op = constraint.operator
        if op is EQ:
            key = value_key(constraint.operand)
            slots = self.eq_slots.get(key)
            if slots is not None and slot in slots:
                del slots[slot]
                self.eq_square -= 2 * len(slots) + 1
                self.eq_total -= 1
                if not slots:
                    del self.eq_slots[key]
        elif op is EXISTS:
            self.exists_slots.pop(slot, None)
        elif self._tier_for(constraint).remove(constraint.operand, slot):
            self.tier_total -= 1
        self.dirty = True

    def _tier_for(self, constraint: AttributeConstraint) -> _RangeTier:
        family = operand_family(constraint.operand)
        assert family is not None, "caller guarantees range-indexability"
        for op, key, reverse in self._TIER_OPS:
            if constraint.operator is op:
                tier = self.tiers.get((key, family))
                if tier is None:
                    tier = self.tiers[(key, family)] = _RangeTier(reverse)
                return tier
        raise AssertionError(f"not a range operator: {constraint.operator!r}")

    # -- compilation -----------------------------------------------------

    def recompile(self, size: int) -> None:
        """Rebuild every bitmap of this attribute (dirty-granularity)."""
        self.eq_bitmaps = {
            key: _bitmap_of(list(slots), size)
            for key, slots in self.eq_slots.items()
        }
        self.exists_bitmap = _bitmap_of(list(self.exists_slots), size)
        constrained = self.exists_bitmap
        for bitmap in self.eq_bitmaps.values():
            constrained |= bitmap
        for key in [k for k, tier in self.tiers.items() if not tier.ids]:
            del self.tiers[key]
        for tier in self.tiers.values():
            tier.recompile()
            constrained |= _bitmap_of(tier.ids, size)
        self.constrained = constrained
        self.dirty = False

    # -- the hot path ----------------------------------------------------

    def satisfied_by(self, value: Any) -> int:
        """Bitmap of slots whose indexed group is satisfied by ``value``.

        An exact ``str``, ``int`` or ``float`` — nearly every value — is
        hashable, keyed ``(family, value)`` by :func:`value_key` with the
        family its type names, which is also its :func:`operand_family`
        (a NaN's is none), so it is looked up without those three calls;
        anything else takes them.
        """
        satisfied = self.exists_bitmap
        kind = type(value)
        if kind is str or kind is int or kind is float:
            family = "str" if kind is str else "num"
            bucket = self.eq_bitmaps.get((family, value))
            if bucket is not None:
                satisfied |= bucket
            if self.tiers and value == value:
                satisfied |= self._ranges_satisfied(family, value)
            return satisfied
        if hashable(value):
            bucket = self.eq_bitmaps.get(value_key(value))
            if bucket is not None:
                satisfied |= bucket
        if self.tiers:
            family = operand_family(value)
            if family is not None:
                satisfied |= self._ranges_satisfied(family, value)
        return satisfied

    def _ranges_satisfied(self, family: str, value: Any) -> int:
        satisfied = 0
        tiers = self.tiers
        # attr < x satisfied iff x > value: suffix past bisect_right.
        tier = tiers.get(("lt", family))
        if tier is not None:
            satisfied |= tier.satisfied_from(bisect.bisect_right(tier.operands, value))
        # attr <= x satisfied iff x >= value: suffix past bisect_left.
        tier = tiers.get(("le", family))
        if tier is not None:
            satisfied |= tier.satisfied_from(bisect.bisect_left(tier.operands, value))
        # attr > x satisfied iff x < value: prefix up to bisect_left.
        tier = tiers.get(("gt", family))
        if tier is not None:
            satisfied |= tier.satisfied_from(bisect.bisect_left(tier.operands, value))
        # attr >= x satisfied iff x <= value: prefix up to bisect_right.
        tier = tiers.get(("ge", family))
        if tier is not None:
            satisfied |= tier.satisfied_from(bisect.bisect_right(tier.operands, value))
        return satisfied


def _indexable_group(
    constraints: Sequence[AttributeConstraint],
) -> Optional[AttributeConstraint]:
    """The group's single indexable constraint, or None (residual group).

    A group compiles iff it holds exactly one constraint and that
    constraint fits a flat tier: equality with a hashable operand,
    ``exists``, or an ordering operator with a non-boolean numeric or
    string operand.  Everything else — multi-constraint conjunctions on
    one attribute (interval subscriptions), ``NE``/``PREFIX``/
    ``CONTAINS``, boolean, unhashable or NaN operands — stays
    interpreted, but only runs on candidates that survived the compiled
    tiers.  (``= nan`` holds for no value, yet a bucket keyed by it
    would be found by the same NaN object through dict identity.)
    """
    if len(constraints) != 1:
        return None
    constraint = constraints[0]
    op = constraint.operator
    if op is EQ:
        operand = constraint.operand
        return constraint if hashable(operand) and not is_nan(operand) else None
    if op is EXISTS:
        return constraint
    if op in (LT, LE, GT, GE) and operand_family(constraint.operand) is not None:
        return constraint
    return None


def _groups(
    filter_: Filter,
) -> Iterator[Tuple[str, Tuple[AttributeConstraint, ...], Optional[AttributeConstraint]]]:
    """``(attribute, non-ALL constraints, the indexable one or None)``
    for every attribute ``filter_`` constrains."""
    for attribute, group in filter_.constraints_by_attribute().items():
        countable = tuple(c for c in group if c.operator is not ALL)
        if countable:
            yield attribute, countable, _indexable_group(countable)


class CompiledMatchEngine(MatchEngine):
    """Drop-in :class:`MatchEngine` with a compiled bitmap hot path.

    Match results — entries, ordering, destination tuples — are
    identical to :class:`CountingIndex`; only the evaluation strategy
    (and therefore the ``evaluations`` work accounting) differs.
    """

    def __init__(self) -> None:
        super().__init__()
        self._attributes: Dict[str, _CompiledAttribute] = {}
        #: handle -> slot (bit position); slots are recycled on removal
        #: so bitmaps stay dense, handles stay monotonic for ordering.
        self._slot_of: Dict[int, int] = {}
        self._handle_at: Dict[int, int] = {}
        self._free_slots: List[int] = []
        self._next_slot = 0
        #: Bitmap of live slots (the all-candidates starting mask).
        self._live = 0
        #: Set when ``_live`` changed since the last match: dirty
        #: attributes, the free masks and the order are refreshed first.
        self._stale = False
        #: ``(attribute, compiled)`` pairs in probe order.
        self._order: List[Tuple[str, _CompiledAttribute]] = []
        #: Bitmap of slots with at least one residual constraint group.
        self._residual_mask = 0
        #: slot -> tuple of residual constraints (absence-aware eval).
        self._residuals: Dict[int, Tuple[AttributeConstraint, ...]] = {}
        #: Constraint probes performed (LC bookkeeping: one per present
        #: indexed attribute probed while candidates it constrains
        #: remain + one per residual predicate run).
        self.evaluations = 0
        #: Dirty-attribute recompiles performed (metrics counter feed).
        self.rebuilds = 0
        #: Residual predicates evaluated on surviving candidates.
        self.residual_evaluations = 0

    # ------------------------------------------------------------------
    # Mutation (updates source structures, marks attributes dirty)
    # ------------------------------------------------------------------

    def _register(self, filter_: Filter, handle: int) -> None:
        slot = self._free_slots.pop() if self._free_slots else self._next_slot
        if slot == self._next_slot:
            self._next_slot += 1
        self._slot_of[handle] = slot
        self._handle_at[slot] = handle
        self._live |= 1 << slot
        self._stale = True
        residuals: List[AttributeConstraint] = []
        for attribute, countable, indexed in _groups(filter_):
            if indexed is None:
                residuals.extend(countable)
                continue
            index = self._attributes.get(attribute)
            if index is None:
                index = self._attributes[attribute] = _CompiledAttribute()
            index.insert(indexed, slot)
        if residuals:
            self._residuals[slot] = tuple(residuals)
            self._residual_mask |= 1 << slot

    def _unregister(self, filter_: Filter, handle: int) -> None:
        slot = self._slot_of.pop(handle)
        del self._handle_at[slot]
        for attribute, _, indexed in _groups(filter_):
            index = self._attributes.get(attribute)
            if indexed is not None and index is not None:
                index.remove(indexed, slot)
                if index.is_empty():
                    del self._attributes[attribute]
        if slot in self._residuals:
            del self._residuals[slot]
            self._residual_mask &= ~(1 << slot)
        self._live &= ~(1 << slot)
        self._stale = True
        self._free_slots.append(slot)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _recompile_dirty(self) -> None:
        """Catch the compiled side up with the mutations since the last
        match: rebuild only the attributes they touched, give every
        attribute the free mask of the new live set, and re-sort the
        probe order (a handful of attributes; only an attribute that
        recompiled, appeared or went can move in it)."""
        if not self._stale:
            return
        self._stale = False
        size = self._next_slot
        live = self._live
        for index in self._attributes.values():
            if index.dirty:
                index.recompile(size)
                self.rebuilds += 1
            index.free = live & ~index.constrained
        self._order = self._probe_order()

    def _probe_order(self) -> List[Tuple[str, _CompiledAttribute]]:
        """The attributes, the one a probe is expected to clear most
        slots of first (:meth:`_CompiledAttribute.clears`); ties keep
        insertion order (``sorted`` is stable)."""
        return sorted(self._attributes.items(), key=lambda item: -item[1].clears())

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        if not self._filters:
            return []
        self._recompile_dirty()
        return self._materialize(self._match_bitmap(_properties_of(event)))

    def match_batch(
        self, events: Sequence[Any]
    ) -> List[List[Tuple[Filter, Tuple[Hashable, ...]]]]:
        """Match a whole run of events: dirty attributes recompile once
        for the run, then each event goes through the per-event kernel."""
        if not self._filters:
            return [[] for _ in events]
        self._recompile_dirty()
        return [
            self._materialize(self._match_bitmap(_properties_of(event)))
            for event in events
        ]

    def _match_bitmap(self, properties: Any) -> int:
        acc = self._live
        probes = 0
        for attribute, index in self._order:
            if not acc & index.constrained:
                continue
            if attribute in properties:
                probes += 1
                satisfied = index.satisfied_by(properties[attribute])
                acc = (acc & satisfied) | (acc & index.free)
            else:
                # Absent attribute: every non-ALL constraint on it fails.
                acc &= index.free
            if not acc:
                break
        self.evaluations += probes
        if acc & self._residual_mask:
            acc = self._apply_residuals(acc, properties)
        return acc

    def _apply_residuals(self, acc: int, properties: Any) -> int:
        pending = acc & self._residual_mask
        evaluated = 0
        while pending:
            low = pending & -pending
            pending ^= low
            slot = low.bit_length() - 1
            for constraint in self._residuals[slot]:
                evaluated += 1
                if not constraint.matches(properties):
                    acc ^= low
                    break
        self.residual_evaluations += evaluated
        self.evaluations += evaluated
        return acc

    def _materialize(self, acc: int) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        if not acc:
            return []
        handle_at = self._handle_at
        matched: List[int] = []
        while acc:
            low = acc & -acc
            acc ^= low
            matched.append(handle_at[low.bit_length() - 1])
        matched.sort()  # filter insertion order, like CountingIndex
        return [
            (self._by_handle[handle], tuple(self._ids[handle])) for handle in matched
        ]

    def __repr__(self) -> str:
        return (
            f"CompiledMatchEngine({len(self)} filters, "
            f"{len(self._attributes)} attributes, {self.rebuilds} rebuilds)"
        )

