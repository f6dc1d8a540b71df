"""Subscription records and lease (TTL) soft state — Section 4.3.

A :class:`Subscription` binds a subscriber's identity to its *standard*
indexable filter, the event class subscribed to, and optionally the full
:class:`~repro.events.closures.FilterClosure` whose residual part runs
only at delivery.

Nodes track liveness of stored ``<filter, id>`` pairs with a
:class:`LeaseTable`: subscribers (and nodes, for the filters they pushed
to their parents) renew before each TTL expires; pairs silent for
``expiry_factor × TTL`` (3× in the paper) are purged.  This soft-state
scheme subsumes unsubscription and tolerates crashes and partitions —
the properties the failure-injection tests exercise.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.events.closures import FilterClosure
from repro.filters.filter import Filter

_subscription_ids = itertools.count(1)
_group_ids = itertools.count(1)


def next_group_id() -> int:
    """A fresh id for a disjunction group (branch subscriptions)."""
    return next(_group_ids)

#: The paper purges filters "at the end of each 3x(TTL) periods".
DEFAULT_EXPIRY_FACTOR = 3.0
#: Renew halfway through the TTL ("before the expiry of each TTL"): the
#: cadence of every lease holder's renew task (brokers, subscribers,
#: flow registrars).
RENEW_FRACTION = 0.5


@dataclass
class Subscription:
    """One subscriber-side subscription.

    ``filter`` is the standard-form conjunctive filter that travels into
    the overlay; ``closure`` (optional) adds the residual predicate for
    perfect stage-0 filtering; ``event_class`` names the advertised class
    the filter was standardized against.  ``group`` ties together the
    branch subscriptions of one disjunctive subscription: the subscriber
    runtime delivers each event at most once per group.
    """

    filter: Filter
    event_class: str
    closure: Optional[FilterClosure] = None
    subscription_id: int = field(default_factory=lambda: next(_subscription_ids))
    group: Optional[int] = None

    def matches_exactly(self, event: object, metadata: object = None) -> bool:
        """Stage-0 perfect filtering: conjunctive part plus residual."""
        if self.closure is not None:
            return self.closure.matches(event, metadata)
        return self.filter.matches(metadata if metadata is not None else event)

    def __hash__(self) -> int:
        return hash(self.subscription_id)

    def __repr__(self) -> str:
        return f"Subscription(#{self.subscription_id} {self.event_class}: {self.filter})"


class LeaseTable:
    """Renewal timestamps for ``(filter, id)`` pairs held by a node."""

    def __init__(self, ttl: float, expiry_factor: float = DEFAULT_EXPIRY_FACTOR):
        if not ttl > 0:  # NaN fails every comparison
            raise ValueError(f"TTL must be positive, got {ttl}")
        if not expiry_factor >= 1:
            raise ValueError(f"expiry factor must be >= 1, got {expiry_factor}")
        self.ttl = ttl
        self.expiry_factor = expiry_factor
        self._renewed_at: Dict[Tuple[Filter, Hashable], float] = {}

    def touch(self, filter_: Filter, destination: Hashable, now: float) -> None:
        """Record an insertion or renewal for the pair."""
        self._renewed_at[(filter_, destination)] = now

    def touch_all(self, destination: Hashable, now: float) -> int:
        """Renew every pair held for ``destination`` (bulk Renewal message).

        Returns the number of pairs renewed.
        """
        renewed = 0
        for pair in self._renewed_at:
            if pair[1] == destination:
                self._renewed_at[pair] = now
                renewed += 1
        return renewed

    def forget(self, filter_: Filter, destination: Hashable) -> None:
        """Drop the pair (explicit unsubscription or purge)."""
        self._renewed_at.pop((filter_, destination), None)

    def is_live(self, filter_: Filter, destination: Hashable, now: float) -> bool:
        renewed = self._renewed_at.get((filter_, destination))
        if renewed is None:
            return False
        return (now - renewed) < self.ttl * self.expiry_factor

    def expired(self, now: float) -> List[Tuple[Filter, Hashable]]:
        """Pairs whose lease has lapsed (the REMOVE INVALID FILTERS task)."""
        deadline = self.ttl * self.expiry_factor
        return [
            pair
            for pair, renewed in self._renewed_at.items()
            if (now - renewed) >= deadline
        ]

    def pairs(self) -> List[Tuple[Filter, Hashable]]:
        return list(self._renewed_at)

    def __len__(self) -> int:
        return len(self._renewed_at)

    def __contains__(self, pair: object) -> bool:
        return pair in self._renewed_at
