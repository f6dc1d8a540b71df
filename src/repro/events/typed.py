"""Typed events and reflection-based meta-data extraction (Section 3.4).

The paper's convention: *"for each attribute (used for filtering), the
type offers an access method (used for expressing filters), whose name
corresponds to the attribute's name prefixed with ``get``"*.  The event
system uses reflection to extract these attributes into the low-level
:class:`~repro.events.base.PropertyEvent` representation that brokers
filter on — without ever executing application code on broker nodes.

Both Java-style (``getSymbol``) and Python-style (``get_symbol``)
accessor names are recognised, as are read-only ``property`` members.
Methods taking parameters are deliberately ignored: per the paper, such
behaviour is "only applied locally" (residual predicates, see
:mod:`repro.events.closures`), never used for routing.
"""

import inspect
import weakref
from types import FunctionType, MethodType
from typing import Any, Dict, List, Optional, Tuple

from repro.events.base import CLASS_ATTRIBUTE, PropertyEvent


class TypedEvent:
    """Optional convenience base class for application event types.

    Subclassing is *not* required for reflection — any object following
    the accessor convention works — but the base class gives events a
    uniform ``repr`` and a direct ``to_property_event`` shortcut.
    """

    def attributes(self) -> Dict[str, Any]:
        """The reflected attribute dictionary of this event."""
        return reflect_attributes(self)

    def to_property_event(self, class_name: Optional[str] = None) -> PropertyEvent:
        """The covering low-level representation of this event."""
        return to_property_event(self, class_name=class_name)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attributes().items()))
        return f"{type(self).__name__}({inner})"


def _accessor_attribute_name(method_name: str) -> Optional[str]:
    """Map an accessor method name to its attribute name, or None.

    ``get_symbol`` -> ``symbol``; ``getSymbol`` -> ``symbol``; anything
    else (including plain ``get``) -> None.
    """
    if method_name.startswith("get_") and len(method_name) > 4:
        return method_name[4:]
    if (
        method_name.startswith("get")
        and len(method_name) > 3
        and method_name[3].isupper()
    ):
        return method_name[3].lower() + method_name[4:]
    return None


def _takes_no_arguments(method: Any) -> bool:
    """True for bound methods callable without arguments."""
    try:
        signature = inspect.signature(method)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.default is inspect.Parameter.empty and parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return False
    return True


class _ReflectionPlan:
    """What reflection learns from a class alone, resolved once per class.

    ``accessors`` lists, in ``dir(cls)`` order, every public name that
    follows the accessor convention as ``(name, attribute, function,
    zero_argument)``: ``function`` is a weak reference to the plain
    function the class defines under ``name`` (``None`` for anything
    else — a static method, a callable object, a non-callable) and
    ``zero_argument`` whether that function, bound, is callable without
    arguments.  ``properties`` lists the public ``property`` members.

    The plan holds names, flags and weak references only, so it never
    keeps its class alive (a method using ``super()`` references its
    class through the ``__class__`` cell).
    """

    __slots__ = ("accessors", "properties")

    def __init__(self, cls: type):
        names = [name for name in dir(cls) if not name.startswith("_")]
        self.accessors: List[Tuple[str, str, Optional[weakref.ref], bool]] = []
        for name in names:
            attribute = _accessor_attribute_name(name)
            if attribute is None:
                continue
            function = _defined_function(cls, name)
            if function is None:
                self.accessors.append((name, attribute, None, False))
            else:
                # The signature of a bound method does not depend on
                # what it is bound to.
                zero_argument = _takes_no_arguments(MethodType(function, cls))
                self.accessors.append(
                    (name, attribute, weakref.ref(function), zero_argument)
                )
        self.properties: List[str] = [
            name for name in names if isinstance(getattr(cls, name, None), property)
        ]


def _defined_function(cls: type, name: str) -> Optional[FunctionType]:
    """The plain function ``cls`` defines or inherits under ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            member = vars(klass)[name]
            return member if type(member) is FunctionType else None
    return None


#: One plan per event class, dropped with the class.
_PLANS: "weakref.WeakKeyDictionary[type, _ReflectionPlan]" = (
    weakref.WeakKeyDictionary()
)


def reflect_attributes(event: Any) -> Dict[str, Any]:
    """Extract the filterable attributes of an event object.

    Discovery order (later sources do not override earlier ones):

    1. zero-argument accessor methods named ``get_<attr>`` / ``get<Attr>``;
    2. read-only ``property`` members of the class.

    Private state (underscore-prefixed) is never read directly — only
    through accessors, preserving encapsulation exactly as the paper's
    reflection scheme does.

    Which names exist and what their methods take is a property of the
    type (§3.4), resolved at the class's first event and reused for
    every later one; per event the accessors are only looked up on the
    instance and called.  Members added to a class after its first
    event are not seen.
    """
    cls = type(event)
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _ReflectionPlan(cls)
    attributes: Dict[str, Any] = {}
    for name, attribute, function, zero_argument in plan.accessors:
        if attribute in attributes:
            continue
        member = getattr(event, name, None)
        if (
            function is not None
            and type(member) is MethodType
            and member.__func__ is function()
        ):
            if zero_argument:
                attributes[attribute] = member()
        elif callable(member) and _takes_no_arguments(member):
            # Not the method the plan saw (an instance attribute of the
            # same name, a descriptor, a replaced method): inspect it.
            attributes[attribute] = member()
    for name in plan.properties:
        if name not in attributes:
            attributes[name] = getattr(event, name)
    return attributes


def to_property_event(
    event: Any, class_name: Optional[str] = None
) -> PropertyEvent:
    """Transform an event object into its covering property representation.

    The result carries the reserved ``class`` attribute (the event's type
    name, or ``class_name`` when given — the registry passes the
    registered name) plus every reflected attribute.  This is the event
    transformation of Section 3.3 applied at the publisher boundary.  A
    :class:`PropertyEvent` is its own representation: it comes back as
    it is, or with ``class`` set to ``class_name`` when one is given.
    """
    if isinstance(event, PropertyEvent):
        if class_name is None:
            return event
        return PropertyEvent(event._properties, **{CLASS_ATTRIBUTE: class_name})
    properties = reflect_attributes(event)
    properties[CLASS_ATTRIBUTE] = class_name or type(event).__name__
    return PropertyEvent(properties)
