"""Low-level event representation: immutable name-value property sets.

This is the paper's original formal model ("events are represented by
name-value tuples", Example 1) and, in the full system, the *weakened*
covering representation of typed event objects that intermediate nodes
filter on.  The reserved attribute ``class`` carries the event's type name
(cf. Example 4's ``(class, "Stock")``).
"""

from collections.abc import Mapping as AbcMapping
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

#: Reserved attribute holding the event's type name.
CLASS_ATTRIBUTE = "class"


class PropertyEvent(AbcMapping):
    """An immutable mapping of attribute names to values.

    Supports the full ``Mapping`` protocol, so filters can evaluate it
    directly.  Construction accepts a mapping or an iterable of pairs:

    >>> e1 = PropertyEvent({"symbol": "Foo", "price": 10.0, "volume": 32300})
    >>> e1["price"]
    10.0
    >>> e1.restricted_to(["symbol", "price"])
    PropertyEvent(symbol='Foo', price=10.0)
    """

    __slots__ = ("_properties", "_hash")

    def __init__(
        self,
        properties: Union[Mapping[str, Any], Iterable[Tuple[str, Any]]] = (),
        **extra: Any,
    ):
        merged: Dict[str, Any] = dict(properties)
        merged.update(extra)
        for name in merged:
            if not isinstance(name, str):
                raise TypeError(f"attribute names must be strings, got {name!r}")
        object.__setattr__(self, "_properties", merged)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _owning(cls, properties: Dict[str, Any]) -> "PropertyEvent":
        """Internal constructor: wrap ``properties`` as is.

        The caller hands over a dict it built itself, with string names,
        and keeps no reference to it: no copy, no validation loop.
        """
        event = object.__new__(cls)
        object.__setattr__(event, "_properties", properties)
        object.__setattr__(event, "_hash", None)
        return event

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("PropertyEvent is immutable")

    @property
    def properties(self) -> Mapping[str, Any]:
        """The underlying read-only view (self, since PropertyEvent is a Mapping)."""
        return self

    @property
    def event_class(self) -> Optional[str]:
        """The value of the reserved ``class`` attribute, if any."""
        return self._properties.get(CLASS_ATTRIBUTE)

    def __getitem__(self, name: str) -> Any:
        return self._properties[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._properties)

    def __len__(self) -> int:
        return len(self._properties)

    def __contains__(self, name: object) -> bool:
        return name in self._properties

    def restricted_to(self, attributes: Iterable[str]) -> "PropertyEvent":
        """Event weakening: keep only the named attributes.

        Dropping attributes yields a covering event for every filter that
        does not test the dropped attributes for existence — the
        coordinated-weakening condition of Proposition 2.
        """
        keep = set(attributes)
        return PropertyEvent._owning(
            {name: value for name, value in self._properties.items() if name in keep}
        )

    def with_properties(self, **updates: Any) -> "PropertyEvent":
        """Functional update: a new event with the given properties set."""
        merged = dict(self._properties)
        merged.update(updates)
        return PropertyEvent._owning(merged)

    def __reduce__(self):
        # Immutability (__setattr__ raises) breaks pickle's default slot
        # restoration; rebuild through the owning constructor instead
        # (the unpickled dict is fresh and belongs to nobody else).
        return (_restore, (self._properties,))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PropertyEvent):
            return self._properties == other._properties
        if isinstance(other, Mapping):
            return dict(self._properties) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._properties.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._properties.items())
        return f"PropertyEvent({inner})"


def _restore(properties: Dict[str, Any]) -> PropertyEvent:
    """Unpickling hook of :meth:`PropertyEvent.__reduce__`."""
    return PropertyEvent._owning(properties)
