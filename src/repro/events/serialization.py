"""Encapsulation-preserving event envelopes.

The broker overlay must never deserialize or execute event objects (that
is the scalability half of the event-safety tradeoff, Section 2.2).  An
:class:`Envelope` therefore pairs

- an **opaque payload**: the pickled original event object, which only
  the subscriber runtime ever opens, with
- the **meta-data**: the reflected :class:`PropertyEvent` used for all
  intermediate filtering.

Brokers route the envelope by its meta-data and forward the payload
untouched; :func:`unmarshal` runs only at the edge, delivering the
original typed object to matching subscribers ("end-to-end" event
safety, Section 3.4).

A :class:`PropertyEvent` is its own meta-data (Example 1's name-value
tuple), so it travels with an **empty payload**: the meta-data *is* the
event, and :func:`unmarshal` hands it back as is.  A pickle is never
empty, so that one rule holds wherever an envelope is, in the simulator,
in a socket record (a payload of length 0) and in the event log.  A
subclass of :class:`PropertyEvent` travels as a plain one over the same
properties: its own methods are application code, which no broker runs.
"""

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.events.base import PropertyEvent
from repro.events.typed import to_property_event


_set = object.__setattr__


@dataclass(frozen=True, init=False, repr=False)
class Envelope:
    """A routable event: filtering meta-data plus opaque payload.

    ``published_at`` (simulated time at the publishing boundary, when
    known) rides along so the delivery-latency metrics can be computed
    at the subscriber without any extra protocol machinery, and
    ``event_id`` (publisher name, sequence number) gives every published
    event a stable identity — the subscriber runtime uses it to
    de-duplicate deliveries of disjunctive subscriptions whose branches
    arrive over different paths.
    """

    __slots__ = ("metadata", "payload", "published_at", "event_id")

    metadata: PropertyEvent
    payload: bytes
    published_at: Optional[float]
    event_id: Optional[tuple]

    def __init__(
        self,
        metadata: PropertyEvent,
        payload: bytes,
        published_at: Optional[float] = None,
        event_id: Optional[tuple] = None,
    ):
        _set(self, "metadata", metadata)
        _set(self, "payload", payload)
        _set(self, "published_at", published_at)
        _set(self, "event_id", event_id)

    def __repr__(self) -> str:  # the payload is opaque: never rendered
        return (
            f"Envelope(metadata={self.metadata!r}, "
            f"published_at={self.published_at!r}, event_id={self.event_id!r})"
        )

    def __getstate__(self) -> Dict[str, Any]:
        """The fields as a dict, in order: the pickle a dict-backed
        envelope made, byte for byte."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            _set(self, name, value)

    @property
    def event_class(self) -> Optional[str]:
        return self.metadata.event_class

    def __len__(self) -> int:
        """Approximate wire size in bytes (payload + crude metadata cost)."""
        return len(self.payload) + 16 * len(self.metadata)


def marshal(
    event: Any,
    class_name: Optional[str] = None,
    published_at: Optional[float] = None,
    event_id: Optional[tuple] = None,
) -> Envelope:
    """Publisher-side transformation: object -> envelope.

    Reflection extracts the meta-data (Proposition 2's covering event);
    pickling captures the full object for end-to-end delivery.  A
    :class:`PropertyEvent` is its own meta-data and is not pickled;
    ``class_name``, when given, is its ``class`` attribute.
    """
    if isinstance(event, PropertyEvent):
        if class_name is not None:
            event = to_property_event(event, class_name)
        elif type(event) is not PropertyEvent:
            event = PropertyEvent(event._properties)
        return Envelope(event, b"", published_at, event_id)
    return Envelope(
        metadata=to_property_event(event, class_name=class_name),
        payload=pickle.dumps(event),
        published_at=published_at,
        event_id=event_id,
    )


def unmarshal(envelope: Envelope) -> Any:
    """Subscriber-side: recover the original typed event object (the
    meta-data itself when the payload is empty).

    Must only be called by the subscriber runtime; broker code has no
    business importing this function.
    """
    payload = envelope.payload
    if not payload:
        return envelope.metadata
    return pickle.loads(payload)
