"""Shared match-engine interface, the engine registry and the routing cache.

Three engines implement the :class:`MatchEngine` surface, so broker
nodes, the centralized baseline and the caching layer below treat them
interchangeably; :func:`engine_classes` names them, :data:`DEFAULT_ENGINE`
says which one a system gets when nothing is passed, and
:func:`make_engine` is the one place an engine is built from its name:

- :class:`~repro.filters.compiled.CompiledMatchEngine` (``"compiled"``,
  the default) — bitmap tiers evaluated a whole run at a time;
- :class:`~repro.filters.index.CountingIndex` (``"index"``) — the
  counting algorithm, kept as the opt-in ablation EXPERIMENTS.md's
  tables read;
- :class:`~repro.filters.table.FilterTable` (``"table"``) — the paper's
  naive Figure-6 table, the oracle the other two are tested against.

:class:`CachedMatchEngine` wraps any of them with a memo of routing
decisions keyed by a canonical *fingerprint* of the event's property set
(``cache=True``, opt-in: on top of the compiled engine a hit — fingerprint
sort, tuple, LRU move, list copy — costs what the match it saves costs,
and a miss costs both, DESIGN §12; it still pays on the counting index,
whose match is proportional to the satisfied constraints).  Real event
streams are highly repetitive (identical property-set shapes recur
constantly — Gryphon's information-flow brokering and Shi et al.'s
subscription aggregation both exploit this), so a per-node memo converts
most matches into a single dict lookup.

Soundness rests on two facts:

1. A match result depends only on the values of attributes some stored
   filter actually constrains (the *relevant* attributes): every other
   attribute is never probed by any engine.  The fingerprint therefore
   restricts the event to its relevant attributes — two events that agree
   there are routed identically — and encodes attribute *absence* by
   omission (constraints never match absent attributes).
2. Every mutation path — ``insert``, ``remove``, ``remove_destination``
   (lease expiry and unsubscription route through these), and the
   covering-merge compaction rebuild (which constructs a fresh wrapped
   engine) — flushes the memo and the relevant-attribute set, so a stale
   decision can never survive a table change.

Values are keyed with :func:`~repro.filters.operators.value_key`, the
key the indexed engines' equality buckets use, whose equality is exactly
``=``: ``1`` and ``1.0`` may share a decision (every engine treats them
identically under every operator), but ``True`` and ``Decimal(1)`` may
not.
"""

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.filters.filter import Filter
from repro.filters.operators import ALL, value_key
from repro.metrics.counters import CacheStats


class MatchEngine(ABC):
    """The surface broker nodes require from a matching engine.

    Concrete engines also expose an ``evaluations`` counter of constraint
    probes performed (the LC bookkeeping callers read as a delta around
    each ``match_batch`` call).  The counters below are part of the
    surface too, so that a broker reads them off whatever engine it
    holds instead of probing for its class.

    The two indexed engines, :class:`~repro.filters.index.CountingIndex`
    and :class:`~repro.filters.compiled.CompiledMatchEngine`, inherit
    the filter→destination table below: a distinct filter gets a
    monotonic *handle* (the insertion order every match result follows),
    is indexed by the engine's :meth:`_register` when its first
    destination arrives and dropped by :meth:`_unregister` when its last
    one goes.  :class:`~repro.filters.table.FilterTable` overrides all of
    it with its own bookkeeping: it is the oracle the indexed engines are
    tested against, so it shares no code with them.
    :class:`CachedMatchEngine` delegates to the engine it wraps.
    """

    #: Dirty-structure recompiles performed (engines that compile).
    rebuilds = 0
    #: Residual predicates evaluated on candidates the compiled tiers kept.
    residual_evaluations = 0

    def __init__(self) -> None:
        self._filters: Dict[Filter, int] = {}
        self._by_handle: Dict[int, Filter] = {}
        #: handle -> insertion-ordered destination set.
        self._ids: Dict[int, Dict[Hashable, None]] = {}
        #: Reverse map: destination -> handles it appears under, so
        #: ``remove_destination`` (disconnect / lease-expiry churn) walks
        #: only that destination's filters instead of the whole table.
        self._dests: Dict[Hashable, Dict[int, None]] = {}
        self._next_handle = 0

    def _register(self, filter_: Filter, handle: int) -> None:
        """Index a filter that just got its first destination."""
        raise NotImplementedError

    def _unregister(self, filter_: Filter, handle: int) -> None:
        """Drop a filter whose last destination just went."""
        raise NotImplementedError

    def insert(self, filter_: Filter, destination: Hashable) -> None:
        """Associate ``destination`` with ``filter_``."""
        if filter_.matches_nothing:
            raise ValueError("cannot index fF (matches nothing)")
        handle = self._filters.get(filter_)
        if handle is None:
            handle = self._next_handle
            self._next_handle += 1
            self._filters[filter_] = handle
            self._by_handle[handle] = filter_
            self._ids[handle] = {}
            self._register(filter_, handle)
        ids = self._ids[handle]
        if destination not in ids:
            ids[destination] = None
            self._dests.setdefault(destination, {})[handle] = None

    def remove(self, filter_: Filter, destination: Hashable) -> bool:
        """Drop one (filter, destination) pair; True when it existed."""
        handle = self._filters.get(filter_)
        if handle is None:
            return False
        ids = self._ids[handle]
        if destination not in ids:
            return False
        del ids[destination]
        handles = self._dests[destination]
        del handles[handle]
        if not handles:
            del self._dests[destination]
        if not ids:
            self._unregister(filter_, handle)
            del self._filters[filter_]
            del self._by_handle[handle]
            del self._ids[handle]
        return True

    def remove_destination(self, destination: Hashable) -> int:
        """Drop ``destination`` everywhere; returns entries affected."""
        handles = self._dests.get(destination)
        if not handles:
            return 0
        removed = 0
        for handle in sorted(handles):
            if self.remove(self._by_handle[handle], destination):
                removed += 1
        return removed

    @abstractmethod
    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        """Matching ``(filter, ids)`` entries in filter insertion order."""

    def destinations_for(self, filter_: Filter) -> Tuple[Hashable, ...]:
        """The ids currently associated with exactly this filter."""
        handle = self._filters.get(filter_)
        if handle is None:
            return ()
        return tuple(self._ids[handle])

    def filters(self) -> Iterator[Filter]:
        """Iterate the distinct stored filters."""
        return iter(self._filters)

    def entries(self) -> Iterator[Tuple[Filter, Tuple[Hashable, ...]]]:
        """Iterate ``(filter, ids)`` pairs."""
        for filter_, handle in self._filters.items():
            yield filter_, tuple(self._ids[handle])

    def __len__(self) -> int:
        """Number of distinct filters held."""
        return len(self._filters)

    def __contains__(self, filter_: Filter) -> bool:
        """Whether this exact filter is stored."""
        return filter_ in self._filters

    def destinations(self, event: Any) -> Set[Hashable]:
        """Union of ids over all filters matching ``event``."""
        result: Set[Hashable] = set()
        for _, ids in self.match(event):
            result.update(ids)
        return result

    def match_batch(
        self, events: Sequence[Any]
    ) -> List[List[Tuple[Filter, Tuple[Hashable, ...]]]]:
        """Match a run of events; result ``i`` is ``match(events[i])``.

        The default simply loops — which preserves the per-event
        memoization of :class:`CachedMatchEngine` — while engines with a
        real batch mode (:class:`~repro.filters.compiled.
        CompiledMatchEngine`) override it to recompile once for the
        whole run.
        """
        return [self.match(event) for event in events]

    def cached_decisions(self) -> int:
        """Routing decisions currently memoized (none without a cache)."""
        return 0


def event_fingerprint(
    event: Any, relevant: FrozenSet[str]
) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """Canonical fingerprint of an event's property set.

    Only attributes in ``relevant`` (those some stored filter constrains)
    participate; absence is encoded by omission.  Returns ``None`` when a
    participating value is unhashable — such events bypass the cache.
    """
    properties: Mapping[str, Any] = getattr(event, "properties", event)
    items = [
        (attribute, value_key(value))
        for attribute, value in properties.items()
        if attribute in relevant
    ]
    items.sort(key=lambda item: item[0])
    key = tuple(items)
    try:
        hash(key)
    except TypeError:
        return None
    return key


class CachedMatchEngine(MatchEngine):
    """A :class:`MatchEngine` wrapper memoizing routing decisions.

    ``stats`` may be shared (a node passes its counters' ``CacheStats`` so
    hit/miss/invalidation totals survive compaction rebuilds); by default
    the wrapper owns a private one.  The memo is a bounded LRU so a
    high-cardinality stream cannot grow it without limit.
    """

    def __init__(
        self,
        inner: MatchEngine,
        stats: Optional[CacheStats] = None,
        max_entries: int = 8192,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.inner = inner
        self.stats = stats if stats is not None else CacheStats()
        self.max_entries = max_entries
        self._cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._relevant: Optional[FrozenSet[str]] = None

    # -- mutation paths (every one invalidates) -------------------------

    def insert(self, filter_: Filter, destination: Hashable) -> None:
        self.inner.insert(filter_, destination)
        self._invalidate()

    def remove(self, filter_: Filter, destination: Hashable) -> bool:
        removed = self.inner.remove(filter_, destination)
        if removed:
            self._invalidate()
        return removed

    def remove_destination(self, destination: Hashable) -> int:
        removed = self.inner.remove_destination(destination)
        if removed:
            self._invalidate()
        return removed

    def _invalidate(self) -> None:
        if self._cache:
            self._cache.clear()
            self.stats.invalidations += 1
        self._relevant = None

    # -- the hot path ----------------------------------------------------

    def _relevant_attributes(self) -> FrozenSet[str]:
        if self._relevant is None:
            attributes = set()
            for filter_ in self.inner.filters():
                for constraint in filter_.constraints:
                    if constraint.operator is not ALL:
                        attributes.add(constraint.attribute)
            self._relevant = frozenset(attributes)
        return self._relevant

    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        key = event_fingerprint(event, self._relevant_attributes())
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.stats.hits += 1
                return list(cached)
        self.stats.misses += 1
        result = self.inner.match(event)
        if key is not None:
            self._cache[key] = tuple(result)
            if len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
        return result

    def match_batch(
        self, events: Sequence[Any]
    ) -> List[List[Tuple[Filter, Tuple[Hashable, ...]]]]:
        """Batch match preserving the memo semantics of :meth:`match`.

        Memoized fingerprints are answered from the cache; the remaining
        *distinct* fingerprints (plus every unhashable-fingerprint event)
        are evaluated through the inner engine's own ``match_batch`` in
        one pass.  Hit/miss/eviction accounting is identical to calling
        :meth:`match` sequentially: a fingerprint recurring within one
        batch is a miss the first time and a hit after, exactly as if the
        memo had been populated between the two calls.
        """
        relevant = self._relevant_attributes()
        results: List[Optional[List[Tuple[Filter, Tuple[Hashable, ...]]]]] = (
            [None] * len(events)
        )
        miss_events: List[Any] = []
        miss_keys: List[Optional[Tuple]] = []
        miss_slots: List[List[int]] = []
        key_to_miss: dict = {}
        for position, event in enumerate(events):
            key = event_fingerprint(event, relevant)
            if key is not None:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.stats.hits += 1
                    results[position] = list(cached)
                    continue
                pending = key_to_miss.get(key)
                if pending is not None:
                    self.stats.hits += 1
                    miss_slots[pending].append(position)
                    continue
                key_to_miss[key] = len(miss_events)
            self.stats.misses += 1
            miss_events.append(event)
            miss_keys.append(key)
            miss_slots.append([position])
        if miss_events:
            for key, slots, result in zip(
                miss_keys, miss_slots, self.inner.match_batch(miss_events)
            ):
                if key is not None:
                    self._cache[key] = tuple(result)
                    if len(self._cache) > self.max_entries:
                        self._cache.popitem(last=False)
                for position in slots:
                    results[position] = list(result)
        return results  # type: ignore[return-value]

    # -- read-only delegation -------------------------------------------

    @property
    def evaluations(self) -> int:
        """Constraint probes performed by the inner engine (hits add 0)."""
        return self.inner.evaluations

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self.inner.evaluations = value

    @property
    def rebuilds(self) -> int:
        return self.inner.rebuilds

    @property
    def residual_evaluations(self) -> int:
        return self.inner.residual_evaluations

    def destinations_for(self, filter_: Filter) -> Tuple[Hashable, ...]:
        return self.inner.destinations_for(filter_)

    def filters(self) -> Iterator[Filter]:
        return self.inner.filters()

    def entries(self) -> Iterator[Tuple[Filter, Tuple[Hashable, ...]]]:
        return self.inner.entries()

    def cached_decisions(self) -> int:
        """Number of fingerprints currently memoized (for tests/reports)."""
        return len(self._cache)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, filter_: Filter) -> bool:
        return filter_ in self.inner

    def __repr__(self) -> str:
        return (
            f"CachedMatchEngine({self.inner!r}, {len(self._cache)} cached, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


#: The engine a system gets when none is named — the one spelling every
#: default (``BrokerConfig``, the facade, ``ScenarioConfig``, the
#: centralized baseline) reads.  Chosen by measurement (DESIGN §12).
DEFAULT_ENGINE = "compiled"


def engine_classes() -> Dict[str, Type[MatchEngine]]:
    """The engine name → class map (``BrokerConfig.engine`` names).

    Resolved on call: the concrete engines subclass :class:`MatchEngine`
    from this module, so they cannot be imported at its top.
    """
    from repro.filters.compiled import CompiledMatchEngine
    from repro.filters.index import CountingIndex
    from repro.filters.table import FilterTable

    return {
        "index": CountingIndex,
        "table": FilterTable,
        "compiled": CompiledMatchEngine,
    }


def engine_class(name: str) -> Type[MatchEngine]:
    """The class behind an engine name; ``ValueError`` for an unknown one."""
    classes = engine_classes()
    if name not in classes:
        known = ", ".join(map(repr, classes))
        raise ValueError(f"engine must be one of {known}, got {name!r}")
    return classes[name]


def make_engine(
    name: str, cache: bool = False, stats: Optional[CacheStats] = None
) -> MatchEngine:
    """A fresh engine of the named kind, cache-wrapped when ``cache``.

    ``stats`` is the :class:`CacheStats` the wrapper counts into (a node
    shares its own so totals survive compaction rebuilds).
    """
    engine = engine_class(name)()
    return CachedMatchEngine(engine, stats=stats) if cache else engine
