"""Constraint operators and the implication relation between constraints.

The paper writes constraints as name-value-operator tuples, e.g.
``(price, 5.0, >)``.  An operator here is a singleton object that knows

- how to *evaluate* itself against an attribute value, and
- when one constraint *implies* another on the same attribute, i.e.
  ``forall v: op1(v, x1) -> op2(v, x2)``.

Implication is the ground truth under filter covering (Definition 2): a
filter ``f`` covers ``f'`` when every constraint of ``f`` is implied by
``f'``'s constraints on the same attribute.

Semantics of missing attributes: a constraint on an attribute the event
does not carry evaluates to ``False`` — except ``ALL``, the wildcard of
Section 4.4, which always evaluates to ``True``.  Consequently every
non-``ALL`` constraint implies ``EXISTS``.

Implication is deliberately *sound but not complete*: a ``True`` answer is
a proof, a ``False`` answer may mean "cannot prove".  Completeness is not
needed — Proposition 1 only requires that filters used for pre-filtering
really cover the originals.

This module is also the one home of the value rules every index over
constraints keys and orders by (DESIGN §12): which values are equal
(:func:`value_key`), which can be ordered (:func:`values_comparable`,
:func:`operand_family`), which can be hashed (:func:`hashable`), how NaN
is treated (:func:`is_nan`), and the sorted ``(operand, id)`` run the
indexed structures bisect (:class:`SortedRun`).
"""

import bisect
from typing import Any, Dict, Hashable, List, Optional


def values_comparable(a: Any, b: Any) -> bool:
    """True when ``a < b`` is meaningful (same comparable family).

    Booleans are deliberately excluded from the numeric family: treating
    ``True`` as ``1`` in subscriptions is never what a user means.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return isinstance(a, str) and isinstance(b, str)


def value_key(value: Any) -> Any:
    """The key whose equality is exactly ``=`` (:meth:`_Eq.evaluate`).

    Values of one comparable family are keyed by the family and compare
    with ``==`` (``1`` and ``1.0`` share a key, ``True`` has its own);
    any other value is keyed by its type, so ``Decimal(1)``,
    ``Fraction(1)`` and ``complex(1, 0)`` never share a key with ``1``.
    An equality bucket, the routing cache and the covering index all
    key by it.  NaN, unequal to itself, is the one value ``=`` and key
    equality disagree on; see :func:`is_nan`.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", value)
    if isinstance(value, str):
        return ("str", value)
    return (type(value), value)


def hashable(value: Any) -> bool:
    """Whether ``value`` can key a dict (an equality bucket)."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def is_nan(value: Any) -> bool:
    """Whether a hashable ``value`` is unequal to itself: a NaN.

    NaN compares false with everything, itself included, so it has no
    position in a sorted run (a bisect over it lands anywhere) and no
    equality bucket (a dict finds it by identity, ``=`` never holds).
    The indexed structures keep a NaN operand on their interpreted path
    and let a NaN value satisfy no indexed constraint but ``exists``.
    """
    return value != value


def operand_family(value: Any) -> Optional[str]:
    """The family a sorted run of ``value`` holds: ``"num"`` or ``"str"``.

    ``None`` — not sortable — for a boolean (outside the numeric family,
    as in :func:`values_comparable`), a NaN and anything else.  Two
    values of one family are comparable; a run holds one family only.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, float):
        return "num" if value == value else None
    if isinstance(value, int):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


class SortedRun:
    """Parallel ``operands`` (sorted, one :func:`operand_family`) and
    ``ids``; equal operands keep insertion order.  Subclasses add their
    own queries over the run."""

    __slots__ = ("operands", "ids")

    def __init__(self) -> None:
        self.operands: List[Any] = []
        self.ids: List[Hashable] = []

    def insert(self, operand: Any, id_: Hashable) -> None:
        position = bisect.bisect_right(self.operands, operand)
        self.operands.insert(position, operand)
        self.ids.insert(position, id_)

    def remove(self, operand: Any, id_: Hashable) -> bool:
        """Drop one ``(operand, id_)`` pair; True when it was held.

        One bisect to the start of the operand's run, then a scan
        bounded by the run itself: O(log n + run).
        """
        operands = self.operands
        position = bisect.bisect_left(operands, operand)
        end = len(operands)
        while position < end and operands[position] == operand:
            if self.ids[position] == id_:
                del operands[position]
                del self.ids[position]
                return True
            position += 1
        return False


class Operator:
    """Base class for constraint operators.

    Each operator is a stateless singleton; identity comparison is safe.
    ``symbol`` is the textual form used by the parser and ``repr``.
    """

    symbol: str = "?"
    #: Operators that ignore their operand (EXISTS, ALL).
    nullary: bool = False

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        """Evaluate the constraint for an attribute.

        ``value`` is the attribute's value (undefined when ``present`` is
        False); ``operand`` is the constraint's right-hand side.
        """
        raise NotImplementedError

    def implies(self, operand: Any, other: "Operator", other_operand: Any) -> bool:
        """Sound check of ``forall v: self(v, operand) -> other(v, other_operand)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.symbol

    def __reduce__(self):
        # Operators are singletons compared with ``is``; unpickle to the
        # canonical instance, never a fresh copy (identity must survive
        # the real-runtime backend's wire serialization).
        return (operator_by_symbol, (self.symbol,))


class _All(Operator):
    """Wildcard: matches any value, including absent attributes (§4.4)."""

    symbol = "ALL"
    nullary = True

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        return True

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        # ALL is satisfied by *every* event, so it only implies constraints
        # that are also tautologies — i.e. ALL itself.
        return other is ALL


class _Exists(Operator):
    """Matches when the attribute is present, whatever its value."""

    symbol = "exists"
    nullary = True

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        return present

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        return other is ALL or other is EXISTS


class _Eq(Operator):
    symbol = "="

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        if not present:
            return False
        if type(value) is type(operand):
            return value == operand
        # Cross-type equality only within the numeric family (1 == 1.0).
        return values_comparable(value, operand) and value == operand

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        # v == operand, so the implied constraint holds iff it matches the
        # operand itself.
        return other.evaluate(operand, other_operand, present=True)


class _Ne(Operator):
    symbol = "!="

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        if not present:
            return False
        if not values_comparable(value, operand) and type(value) is not type(operand):
            # Different families are trivially unequal.
            return True
        return value != operand

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if other is NE:
            return values_comparable(operand, other_operand) and operand == other_operand
        return False


class _Ordering(Operator):
    """Shared implementation for <, <=, >, >=."""

    def compare(self, value: Any, operand: Any) -> bool:
        raise NotImplementedError

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        if not present or not values_comparable(value, operand):
            return False
        return self.compare(value, operand)


class _Lt(_Ordering):
    symbol = "<"

    def compare(self, value: Any, operand: Any) -> bool:
        return value < operand

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if not values_comparable(operand, other_operand):
            return False
        if other is LT:
            return operand <= other_operand  # v < x <= y  =>  v < y
        if other is LE:
            return operand <= other_operand  # v < x <= y  =>  v <= y (v < y even)
        if other is NE:
            return other_operand >= operand  # v < x <= y  =>  v != y
        return False


class _Le(_Ordering):
    symbol = "<="

    def compare(self, value: Any, operand: Any) -> bool:
        return value <= operand

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if not values_comparable(operand, other_operand):
            return False
        if other is LT:
            return operand < other_operand  # v <= x < y  =>  v < y
        if other is LE:
            return operand <= other_operand
        if other is NE:
            return other_operand > operand
        return False


class _Gt(_Ordering):
    symbol = ">"

    def compare(self, value: Any, operand: Any) -> bool:
        return value > operand

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if not values_comparable(operand, other_operand):
            return False
        if other is GT:
            return operand >= other_operand
        if other is GE:
            return operand >= other_operand
        if other is NE:
            return other_operand <= operand
        return False


class _Ge(_Ordering):
    symbol = ">="

    def compare(self, value: Any, operand: Any) -> bool:
        return value >= operand

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if not values_comparable(operand, other_operand):
            return False
        if other is GT:
            return operand > other_operand
        if other is GE:
            return operand >= other_operand
        if other is NE:
            return other_operand < operand
        return False


class _Prefix(Operator):
    symbol = "prefix"

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        if not present or not isinstance(value, str) or not isinstance(operand, str):
            return False
        return value.startswith(operand)

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if not isinstance(operand, str) or not isinstance(other_operand, str):
            return False
        if other is PREFIX:
            # startswith("abc") implies startswith("ab")
            return operand.startswith(other_operand)
        if other is CONTAINS:
            # startswith("abc") implies "bc" in value, for substrings of the prefix
            return other_operand in operand
        return False


class _Contains(Operator):
    symbol = "contains"

    def evaluate(self, value: Any, operand: Any, present: bool) -> bool:
        if not present or not isinstance(value, str) or not isinstance(operand, str):
            return False
        return operand in value

    def implies(self, operand: Any, other: Operator, other_operand: Any) -> bool:
        if other is ALL or other is EXISTS:
            return True
        if other is CONTAINS:
            return (
                isinstance(operand, str)
                and isinstance(other_operand, str)
                and other_operand in operand
            )
        return False


#: Singleton instances — compare with ``is``.
ALL = _All()
EXISTS = _Exists()
EQ = _Eq()
NE = _Ne()
LT = _Lt()
LE = _Le()
GT = _Gt()
GE = _Ge()
PREFIX = _Prefix()
CONTAINS = _Contains()

_BY_SYMBOL: Dict[str, Operator] = {
    op.symbol: op for op in (ALL, EXISTS, EQ, NE, LT, LE, GT, GE, PREFIX, CONTAINS)
}
# Accepted aliases.
_BY_SYMBOL["=="] = EQ
_BY_SYMBOL["<>"] = NE


def operator_by_symbol(symbol: str) -> Operator:
    """Look up an operator by its textual symbol (``'='``, ``'<'``, ...)."""
    try:
        return _BY_SYMBOL[symbol]
    except KeyError:
        raise KeyError(
            f"unknown operator {symbol!r}; known: {sorted(_BY_SYMBOL)}"
        ) from None
