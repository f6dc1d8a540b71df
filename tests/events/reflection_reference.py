"""The per-event reflection the per-class plan replaced, kept as the oracle.

This is ``repro.events.typed.reflect_attributes`` as it stood before
reflection plans (two ``dir(cls)`` walks and one ``inspect.signature``
per accessor on every event), with its two helpers copied beside it so
a change to the production helpers cannot move the oracle with them.
``test_reflection_plan.py`` requires the production function to return
the same dict, in the same insertion order, for every generated class.
"""

import inspect
from typing import Any, Dict, Optional


def _accessor_attribute_name(method_name: str) -> Optional[str]:
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


def reference_reflect_attributes(event: Any) -> Dict[str, Any]:
    attributes: Dict[str, Any] = {}
    cls = type(event)
    for name in dir(cls):
        if name.startswith("_"):
            continue
        attribute = _accessor_attribute_name(name)
        if attribute is None or attribute in attributes:
            continue
        member = getattr(event, name, None)
        if callable(member) and _takes_no_arguments(member):
            attributes[attribute] = member()
    for name in dir(cls):
        if name.startswith("_") or name in attributes:
            continue
        class_member = getattr(cls, name, None)
        if isinstance(class_member, property):
            attributes[name] = getattr(event, name)
    return attributes
