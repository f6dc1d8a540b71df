"""Advertisements: how publishers teach the overlay about event classes.

Section 4.1: *"When generating an event, the publisher specifies the
groups and the attributes they contain.  This information is disseminated
together with event advertisements."*  An :class:`Advertisement` carries
the event class name and the attribute-stage association ``Gc`` (which
embeds the generality-ordered schema); every broker node keeps them in an
:class:`AdvertisementRegistry`, which is what lets any node weaken any
filter for its own stage without global knowledge.

When an event class participates in type-based filtering, the reserved
``class`` attribute appears in the schema — conventionally first, since
the event class is the most general attribute (the paper's Example 6,
where attribute 1 is ``class`` and stage 3 keeps only it:
``i1 = (class, "Stock", =)``).  Single-class workloads like the paper's
bibliographic simulation (§5.2) simply omit it.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.stages import AttributeStageAssociation
from repro.events.base import CLASS_ATTRIBUTE
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import EQ
from repro.filters.standard import standardize


@lru_cache(maxsize=1024)
def _class_constraint(event_class: str) -> AttributeConstraint:
    """``class = event_class``: one immutable constraint per advertised
    class, which every subscription standardized against it shares.
    Sharing only saves objects, so the cache may be bounded: a class
    evicted from it gets a fresh, equal constraint."""
    return AttributeConstraint(CLASS_ATTRIBUTE, EQ, event_class)


@dataclass(frozen=True)
class Advertisement:
    """An advertised event class: name + ``Gc`` (schema and stage sets)."""

    event_class: str
    association: AttributeStageAssociation

    @classmethod
    def infer(
        cls,
        event_class: str,
        samples: Iterable,
        stages: int,
        include_class: bool = True,
    ) -> "Advertisement":
        """Derive an advertisement from sample events (§4.1 automated).

        The generality order comes from observed value-domain sizes: the
        attribute with the fewest distinct values "divides the event
        space into a small set of large sub-categories" and is placed
        first.  The reserved ``class`` attribute, when requested, is
        always the most general.  The stage association defaults to the
        uniform drop-one-per-stage layout.
        """
        from repro.core.stages import rank_by_generality

        domains: Dict[str, set] = {}
        for sample in samples:
            properties = getattr(sample, "properties", None)
            if properties is None:
                from repro.events.typed import reflect_attributes

                properties = reflect_attributes(sample)
            for attribute, value in properties.items():
                if attribute == CLASS_ATTRIBUTE:
                    continue
                domains.setdefault(attribute, set()).add(value)
        if not domains:
            raise ValueError("cannot infer a schema from empty samples")
        ordered = rank_by_generality(
            {attribute: len(values) for attribute, values in domains.items()}
        )
        schema: Tuple[str, ...] = tuple(
            ([CLASS_ATTRIBUTE] if include_class else []) + ordered
        )
        return cls(event_class, AttributeStageAssociation.uniform(schema, stages))

    @property
    def schema(self) -> Tuple[str, ...]:
        """The generality-ordered attribute list (``A_0``)."""
        return self.association.schema

    def class_filter(self) -> Filter:
        """The pure type filter for this class (Example 5's ``i1``)."""
        return Filter([_class_constraint(self.event_class)])

    def standardize(self, filter_: Filter) -> Filter:
        """Standard subscription format for this class (Section 4.4).

        Missing attributes become wildcards in schema order — except the
        reserved ``class`` attribute (when the schema carries it), which
        defaults to equality with this advertisement's class: subscribing
        through an advertisement *is* subscribing to its class.
        """
        standard = standardize(filter_, self.schema, strict=True)
        if CLASS_ATTRIBUTE not in self.schema or standard.matches_nothing:
            return standard
        constraints = []
        for constraint in standard.constraints:
            if constraint.attribute == CLASS_ATTRIBUTE and constraint.is_wildcard:
                constraint = _class_constraint(self.event_class)
            constraints.append(constraint)
        return Filter(constraints)


class AdvertisementRegistry:
    """Per-node store of known advertisements, keyed by event class name."""

    def __init__(self) -> None:
        self._by_class: Dict[str, Advertisement] = {}

    def add(self, advertisement: Advertisement) -> bool:
        """Record an advertisement; returns True when it was new or changed."""
        existing = self._by_class.get(advertisement.event_class)
        if existing == advertisement:
            return False
        self._by_class[advertisement.event_class] = advertisement
        return True

    def get(self, event_class: str) -> Optional[Advertisement]:
        return self._by_class.get(event_class)

    def require(self, event_class: str) -> Advertisement:
        advertisement = self._by_class.get(event_class)
        if advertisement is None:
            raise KeyError(f"event class {event_class!r} has not been advertised")
        return advertisement

    def classes(self) -> List[str]:
        return list(self._by_class)

    def __len__(self) -> int:
        return len(self._by_class)

    def __contains__(self, event_class: object) -> bool:
        return event_class in self._by_class

    def __iter__(self) -> Iterator[Advertisement]:
        return iter(self._by_class.values())
