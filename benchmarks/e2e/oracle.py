"""Delivery oracle and failure accounting.

The expected outcome of a run is the set of ``(subscription, event)``
pairs for which the subscription's filter matches the event's reflected
meta-data, by ``Filter.matches`` alone: no broker, no match engine, no
weakening.  Every segment of every run is checked for exactly-once
equality against it.

Evaluating every live subscription against every event is 6e8
``Filter.matches`` calls on ``sim_match_10k`` — minutes, not seconds —
so :meth:`Oracle.matching` first narrows to the subscriptions whose
equality constraints the event satisfies (one dict probe per distinct
set of constrained attributes) and runs ``Filter.matches`` on those.
The narrowing is itself checked: each segment, a seeded sample of events
is evaluated against *every* live subscription (:meth:`Oracle.brute_force`)
and any disagreement fails the run.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Set, Tuple

from repro.filters.filter import Filter
from repro.filters.operators import EQ

Key = int
Pair = Tuple[Key, int]


class Oracle:
    """Live subscriptions, keyed by the benchmark's subscription number."""

    def __init__(self) -> None:
        self._live: Dict[Key, Tuple[Filter, Tuple[str, ...], tuple]] = {}
        #: constrained attributes -> their required values -> subscriptions
        self._buckets: Dict[Tuple[str, ...], Dict[tuple, Dict[Key, Filter]]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def add(self, key: Key, filter_: Filter) -> None:
        equalities = sorted(
            ((c.attribute, c.operand) for c in filter_.constraints if c.operator is EQ),
            key=lambda pair: pair[0],
        )
        attributes = tuple(attribute for attribute, _ in equalities)
        values = tuple(value for _, value in equalities)
        self._live[key] = (filter_, attributes, values)
        self._buckets.setdefault(attributes, {}).setdefault(values, {})[key] = filter_

    def remove(self, key: Key) -> None:
        _, attributes, values = self._live.pop(key)
        del self._buckets[attributes][values][key]

    def matching(self, metadata: Mapping[str, Any]) -> List[Key]:
        matched: List[Key] = []
        for attributes, by_values in self._buckets.items():
            try:
                values = tuple(metadata[attribute] for attribute in attributes)
            except KeyError:
                continue
            for key, filter_ in by_values.get(values, {}).items():
                if filter_.matches(metadata):
                    matched.append(key)
        return matched

    def brute_force(self, metadata: Mapping[str, Any]) -> List[Key]:
        return [
            key for key, (filter_, _, _) in self._live.items() if filter_.matches(metadata)
        ]


@dataclass
class Tally:
    """Failures of one run, counted against what was attempted."""

    publishes: int = 0
    expected: int = 0
    missing: int = 0
    duplicate: int = 0
    unexpected: int = 0
    #: ``publish`` returned False, ``publish_batch`` came up short, or a
    #: broker shed the event.
    refused: int = 0
    #: Sampled events on which the narrowed and the exhaustive oracle
    #: disagreed, or subscriptions that never reported a home broker.
    harness: int = 0

    @property
    def attempted(self) -> int:
        return self.publishes + self.expected

    @property
    def failed(self) -> int:
        return (
            self.missing + self.duplicate + self.unexpected + self.refused + self.harness
        )

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(
        self, expected: Set[Pair], delivered: Iterable[Pair], examples: List[str]
    ) -> None:
        """Exactly-once equality of one segment's deliveries."""
        counts = Counter(delivered)
        self.expected += len(expected)
        missing = expected - counts.keys()
        unexpected = counts.keys() - expected
        self.missing += len(missing)
        self.unexpected += len(unexpected)
        self.duplicate += sum(n - 1 for n in counts.values() if n > 1)
        for label, pairs in (("missing", missing), ("unexpected", unexpected)):
            for pair in sorted(pairs)[: max(0, 5 - len(examples))]:
                examples.append(f"{label} (subscription, event) {pair}")
