"""The naive filter table of Figure 6.

Each node of the overlay keeps a table ``T`` of entries
``<filter, id1[, id2, ...]>`` mapping a (weakened) filter to the child
nodes or subscribers interested in it.  Matching an event evaluates every
filter in the table — exactly the algorithm the paper presents "for
clarity" in Figure 6.  Systems match with
:class:`repro.filters.compiled.CompiledMatchEngine` by default; this
table (``engine="table"``) is the correctness oracle the test suite
holds that engine and :class:`repro.filters.index.CountingIndex` to.
"""

from typing import Any, Dict, Hashable, Iterator, List, Tuple

from repro.filters.engine import MatchEngine
from repro.filters.filter import Filter


class FilterTable(MatchEngine):
    """Insertion-ordered map from filter to interested destination ids.

    Implements both "upon receiving a <filter, ID> pair" clauses of
    Figure 6: inserting an existing filter appends the id to its list
    instead of creating a duplicate entry.
    """

    def __init__(self) -> None:
        self._entries: Dict[Filter, List[Hashable]] = {}
        #: Number of filter evaluations performed, for the LC metric.
        self.evaluations = 0

    def insert(self, filter_: Filter, destination: Hashable) -> None:
        """Add ``destination`` to the ids associated with ``filter_``."""
        ids = self._entries.setdefault(filter_, [])
        if destination not in ids:
            ids.append(destination)

    def remove(self, filter_: Filter, destination: Hashable) -> bool:
        """Remove one (filter, destination) association.

        Returns True when the pair was present; drops the whole entry when
        its id list becomes empty.
        """
        ids = self._entries.get(filter_)
        if ids is None or destination not in ids:
            return False
        ids.remove(destination)
        if not ids:
            del self._entries[filter_]
        return True

    def remove_destination(self, destination: Hashable) -> int:
        """Remove ``destination`` from every entry (lease expiry path).

        Returns the number of entries it was removed from.
        """
        removed = 0
        for filter_ in list(self._entries):
            if self.remove(filter_, destination):
                removed += 1
        return removed

    def destinations_for(self, filter_: Filter) -> Tuple[Hashable, ...]:
        """The ids currently associated with exactly this filter."""
        return tuple(self._entries.get(filter_, ()))

    def match(self, event: Any) -> List[Tuple[Filter, Tuple[Hashable, ...]]]:
        """Evaluate every filter against ``event`` (Figure 6 inner loop).

        Returns the matching ``(filter, ids)`` entries in table order.
        """
        if not self._entries:
            return []
        matches = []
        for filter_, ids in self._entries.items():
            self.evaluations += 1
            if filter_.matches(event):
                matches.append((filter_, tuple(ids)))
        return matches

    def filters(self) -> Iterator[Filter]:
        return iter(self._entries)

    def entries(self) -> Iterator[Tuple[Filter, Tuple[Hashable, ...]]]:
        for filter_, ids in self._entries.items():
            yield filter_, tuple(ids)

    def __contains__(self, filter_: Filter) -> bool:
        return filter_ in self._entries

    def __len__(self) -> int:
        """Number of distinct filters — the "# of filter" of the LC metric."""
        return len(self._entries)

    def __repr__(self) -> str:
        return f"FilterTable({len(self)} filters)"
