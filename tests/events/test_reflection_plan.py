"""The per-class reflection plan against the per-event reference.

``reflect_attributes`` resolves a class's accessors once and per event
only looks them up and calls them.  Whatever Python lets a class or an
instance do to an accessor name, the result — values *and* insertion
order, which fixes ``PropertyEvent.__repr__`` and with it wire sizes —
must be what the reference in ``reflection_reference.py`` returns.
"""

import functools
import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import typed
from repro.events.typed import reflect_attributes
from tests.events.reflection_reference import reference_reflect_attributes

#: Java- and Python-style accessors and a plain member for two
#: attributes, plus names that only look like accessors.
NAMES = (
    "get_x", "getX", "x",
    "get_yy", "getYy", "yy",
    "get", "get_", "getter", "fetch_x",
)


class _CallableObject:
    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value

    def required(self, n):
        return self.value


def _needs_argument(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


def _member(kind, value):
    """One class-level member of the given kind, answering ``value``."""
    if kind == "zero":
        return lambda self: value
    if kind == "required":
        return lambda self, n: value
    if kind == "defaulted":
        return lambda self, n=1: value
    if kind == "keyword_only":
        return lambda self, *, n: value
    if kind == "keyword_only_defaulted":
        return lambda self, *, n=1: value
    if kind == "variadic":
        return lambda self, *args, **kwargs: value
    if kind == "no_self":
        return lambda: value
    if kind == "wrapped":
        # inspect.signature follows __wrapped__: one required parameter.
        return _needs_argument(lambda self, n: value)
    if kind == "static":
        return staticmethod(lambda: value)
    if kind == "class":
        return classmethod(lambda cls: value)
    if kind == "callable_object":
        return _CallableObject(value)
    if kind == "constant":
        return value
    if kind == "property":
        return property(lambda self: value)
    raise AssertionError(kind)


MEMBER_KINDS = (
    "zero", "required", "defaulted", "keyword_only", "keyword_only_defaulted",
    "variadic", "no_self", "wrapped", "static", "class", "callable_object",
    "constant", "property",
)


def _shadow(kind, value):
    """One instance ``__dict__`` entry hiding a class member's name."""
    if kind == "zero":
        return lambda: value
    if kind == "required":
        return lambda n: value
    # Bound methods of another object: what the class's own accessors
    # look like on the instance, but a different function underneath.
    if kind == "bound_zero":
        return _CallableObject(value).__call__
    if kind == "bound_required":
        return _CallableObject(value).required
    return value


SHADOW_KINDS = ("zero", "required", "bound_zero", "bound_required", "constant")

members = st.dictionaries(st.sampled_from(NAMES), st.sampled_from(MEMBER_KINDS))
shadows = st.dictionaries(st.sampled_from(NAMES), st.sampled_from(SHADOW_KINDS))


def _namespace(owner, chosen, slots):
    namespace = {
        name: _member(kind, f"{owner}.{name}:{kind}") for name, kind in chosen.items()
    }
    if slots:
        namespace["__slots__"] = ()
    return namespace


def _assert_matches_reference(event):
    expected = reference_reflect_attributes(event)
    actual = reflect_attributes(event)
    assert actual == expected
    assert list(actual) == list(expected)


@settings(max_examples=300, deadline=None)
@given(base=members, derived=members, slots=st.booleans(), shadowing=shadows)
def test_plan_equals_reference_for_generated_classes(base, derived, slots, shadowing):
    base_class = type("Base", (), _namespace("Base", base, slots))
    event_class = type("Event", (base_class,), _namespace("Event", derived, slots))
    plain, shadowed = event_class(), event_class()
    if not slots:
        vars(shadowed).update(
            (name, _shadow(kind, f"instance.{name}:{kind}"))
            for name, kind in shadowing.items()
        )
    # The first call resolves the plan from the class; the later ones
    # reuse it, on an instance that hides names and on one that does not.
    for event in (plain, shadowed, plain):
        _assert_matches_reference(event)
    # The base class has a plan of its own, not its subclass's.
    _assert_matches_reference(base_class())


def test_java_accessor_is_tried_before_the_python_one():
    class Both:
        def getPrice(self):
            return "java"

        def get_price(self):
            return "python"

    class JavaNeedsArgument(Both):
        def getPrice(self, currency):
            return "java"

    assert reflect_attributes(Both()) == {"price": "java"}
    assert reflect_attributes(JavaNeedsArgument()) == {"price": "python"}


def test_each_accessor_is_called_once_per_event():
    calls = []

    class Counted:
        def get_a(self):
            calls.append("a")
            return 1

        @property
        def b(self):
            calls.append("b")
            return 2

    for _ in range(3):
        assert reflect_attributes(Counted()) == {"a": 1, "b": 2}
    assert calls == ["a", "b"] * 3


def test_classes_of_one_name_do_not_share_a_plan():
    def make(accessor):
        return type("Event", (), {accessor: lambda self: accessor})

    first, second = make("get_a"), make("get_b")
    assert first.__qualname__ == second.__qualname__
    assert reflect_attributes(first()) == {"a": "get_a"}
    assert reflect_attributes(second()) == {"b": "get_b"}
    assert reflect_attributes(first()) == {"a": "get_a"}


def test_a_dropped_class_does_not_stay_alive_in_the_cache():
    class Base:
        def get_a(self):
            return 1

    class Event(Base):
        def get_a(self):
            # super() closes over the class: the accessor references it.
            return super().get_a() + 1

    assert reflect_attributes(Event()) == {"a": 2}
    assert Event in typed._PLANS
    dropped = weakref.ref(Event)
    del Event
    gc.collect()
    assert dropped() is None
