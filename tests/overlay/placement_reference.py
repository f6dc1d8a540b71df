"""Figure-5b placement as it stood before the covering index, kept as the
oracle.

This is ``BrokerNode._strongest_covering_child`` exactly as it was when
it walked ``table.entries()`` and asked ``Filter.covers`` of every stored
filter, taking the node as an argument instead of ``self``.
``test_placement_differential.py`` requires the production node, which
folds over ``placement_index.covered_by(fsub)`` instead, to pick the
*same child object* after every generated step; ``test_placement_count.py``
puts this scan's ``n`` beside the index's handful of ``covers`` calls.
"""

from typing import Optional

from repro.filters.filter import Filter
from repro.overlay.node import BrokerNode


def strongest_covering_child(node: BrokerNode, fsub: Filter) -> Optional[BrokerNode]:
    """The broker child associated with the strongest stored filter
    covering ``fsub`` (None when no such entry exists)."""
    best_filter: Optional[Filter] = None
    best_child: Optional[BrokerNode] = None
    for stored, ids in node.table.entries():
        if not stored.covers(fsub):
            continue
        child = next(
            (d for d in ids if getattr(d, "is_broker", False)), None
        )
        if child is None:
            continue
        if best_filter is None or (
            best_filter.covers(stored) and not stored.covers(best_filter)
        ):
            best_filter = stored
            best_child = child
    return best_child
