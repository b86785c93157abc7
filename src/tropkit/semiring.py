"""Scalar idempotent semiring arithmetic with residuation, star, and exact intervals.

Four tagged semirings are supported:

    max-plus   (Q u {-inf}, max, +)     zero = -inf, unit = 0
    min-plus   (Q u {+inf}, min, +)     zero = +inf, unit = 0
    max-times  (Q+, max, *)             zero = 0,    unit = 1
    boolean    ({False, True}, or, and)

A payload is the raw value behind a scalar: an exact `int` or
`fractions.Fraction` (input coercion stores integral values as `int`, and
exact arithmetic may leave an integral `Fraction`), `None` for the bottoms
-inf and +inf, or a `bool` for the boolean tag; the max-times zero is
`Fraction(0)`. Floats are rejected so that every identity tested downstream
holds with equality, not tolerance. `PayloadOps` holds each tag's laws on
payloads, and the scalar operations and every matrix kernel read them there.
The canonical order of an idempotent semiring (a <= b  iff  a + b == b) is
the one used everywhere; note that for min-plus it is the reverse of the
numeric order.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import DivisionByBottom, Divergent, TagMismatch


class SemiringTag(enum.Enum):
    MAX_PLUS = "max-plus"
    MIN_PLUS = "min-plus"
    MAX_TIMES = "max-times"
    BOOLEAN = "boolean"

    @property
    def is_semifield(self) -> bool:
        return self is not SemiringTag.BOOLEAN

    @functools.cached_property
    def ops(self) -> "PayloadOps":
        return _OPS[self]


MAX_PLUS = SemiringTag.MAX_PLUS
MIN_PLUS = SemiringTag.MIN_PLUS
MAX_TIMES = SemiringTag.MAX_TIMES
BOOLEAN = SemiringTag.BOOLEAN

Payload = Union[int, Fraction, None, bool]
ScalarLike = Union["TropScalar", Fraction, int, str, bool, None]


def _coerce_payload(value, tag: SemiringTag):
    """Turn a user-supplied payload into the internal representation.

    `None` stands for the bottom of max-plus (-inf) and min-plus (+inf).
    Strings accept "p/q", "-inf" and "+inf". Floats are rejected: the
    toolkit is exact by contract.
    """
    if tag is BOOLEAN:
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        raise TypeError(f"boolean scalar needs a bool, got {value!r}")
    if value is None:
        if tag is MAX_TIMES:
            return Fraction(0)
        return None
    if isinstance(value, str):
        s = value.strip()
        if s in ("-inf", "-oo"):
            if tag is not MAX_PLUS:
                raise ValueError(f"-inf is not an element of {tag.value}")
            return None
        if s in ("+inf", "inf", "+oo"):
            if tag is not MIN_PLUS:
                raise ValueError(f"+inf is not an element of {tag.value}")
            return None
        value = Fraction(s)
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, Fraction) and value.denominator == 1:
        value = int(value)  # integers stay machine ints: exact and fast
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot interpret {value!r} as a {tag.value} scalar")
    if tag is MAX_TIMES and value < 0:
        raise ValueError("max-times scalars are nonnegative rationals")
    return value


def payload_of(value: ScalarLike, tag: SemiringTag) -> Payload:
    """The payload of any scalar-like value: a same-tag TropScalar's own, else coerced."""
    if isinstance(value, TropScalar):
        if value.tag is not tag:
            raise TagMismatch(f"{value.tag.value} vs {tag.value}")
        return value.value
    return _coerce_payload(value, tag)


# -- the semiring laws on payloads ---------------------------------------------
# A sum returns one of its operands, the left one on ties, so folds keep
# their first best term.


def _add_max(a, b):
    if a is None:
        return b
    return a if b is None or a >= b else b


def _add_min(a, b):
    if a is None:
        return b
    return a if b is None or a <= b else b


def _mul_plus(a, b):
    return None if a is None or b is None else a + b


def _residual_plus(x, y):
    if y is None:
        raise DivisionByBottom("residual denominator is the semiring zero")
    return None if x is None else x - y


def _residual_times(x, y):
    if y == 0:
        raise DivisionByBottom("residual denominator is the semiring zero")
    if x == 0:
        return Fraction(0)
    q = Fraction(x) / Fraction(y)
    return int(q) if q.denominator == 1 else q


def _residual_boolean(x, y):
    raise ValueError("residuation needs a semifield tag, not boolean")


@dataclass(frozen=True)
class PayloadOps:
    """One tag's semiring laws on raw payloads: a kernel picks them once per call.

    `residual` raises DivisionByBottom on a zero denominator, and ValueError
    for boolean.
    """

    add: Callable[[Payload, Payload], Payload]
    mul: Callable[[Payload, Payload], Payload]
    residual: Callable[[Payload, Payload], Payload]
    zero: Payload
    unit: Payload

    def le(self, a: Payload, b: Payload) -> bool:
        """The canonical order: a <= b iff a + b == b."""
        return self.add(a, b) == b


_OPS = {
    MAX_PLUS: PayloadOps(_add_max, _mul_plus, _residual_plus, None, 0),
    MIN_PLUS: PayloadOps(_add_min, _mul_plus, _residual_plus, None, 0),
    MAX_TIMES: PayloadOps(_add_max, operator.mul, _residual_times, Fraction(0), 1),
    BOOLEAN: PayloadOps(operator.or_, operator.and_, _residual_boolean, False, True),
}


@dataclass(frozen=True)
class TropScalar:
    """An element of a tagged idempotent semiring (value or bottom)."""

    value: object
    tag: SemiringTag

    def __post_init__(self):
        object.__setattr__(self, "value", _coerce_payload(self.value, self.tag))

    @classmethod
    def _fast(cls, value, tag: SemiringTag) -> "TropScalar":
        """Internal constructor for payloads already in canonical form."""
        obj = object.__new__(cls)
        fields = obj.__dict__  # written directly: the dataclass is frozen
        fields["value"] = value
        fields["tag"] = tag
        return obj

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.value == self.tag.ops.zero

    @property
    def is_finite(self) -> bool:
        """True when the payload is an honest rational (never for bottoms)."""
        return self.value is not None and not isinstance(self.value, bool)

    def same_tag(self, other: "TropScalar") -> None:
        if self.tag is not other.tag:
            raise TagMismatch(f"{self.tag.value} vs {other.tag.value}")

    # -- semiring operations ------------------------------------------------

    def __add__(self, other: "TropScalar") -> "TropScalar":
        return sr_add(self, other)

    def __mul__(self, other: "TropScalar") -> "TropScalar":
        return sr_mul(self, other)

    def __truediv__(self, other: "TropScalar") -> "TropScalar":
        return sr_residual(self, other)

    def star(self) -> "TropScalar":
        return sr_star(self)

    # -- canonical order (a <= b iff a + b == b) -----------------------------

    def __le__(self, other: "TropScalar") -> bool:
        self.same_tag(other)
        return self.tag.ops.le(self.value, other.value)

    def __ge__(self, other: "TropScalar") -> bool:
        return other.__le__(self)

    def __lt__(self, other: "TropScalar") -> bool:
        return self.__le__(other) and self != other

    def __gt__(self, other: "TropScalar") -> bool:
        return other.__le__(self) and self != other

    def __repr__(self) -> str:
        if self.tag is BOOLEAN:
            return "T" if self.value else "F"
        if self.value is None:
            return "-inf" if self.tag is MAX_PLUS else "+inf"
        return str(self.value)


def scalar(value: ScalarLike, tag: SemiringTag = MAX_PLUS) -> TropScalar:
    """Convenience constructor accepting ints, Fractions, "p/q", bottoms."""
    return TropScalar._fast(payload_of(value, tag), tag)


def zero(tag: SemiringTag) -> TropScalar:
    return TropScalar._fast(tag.ops.zero, tag)


def one(tag: SemiringTag) -> TropScalar:
    return TropScalar._fast(tag.ops.unit, tag)


def sr_add(a: TropScalar, b: TropScalar) -> TropScalar:
    """a + b in the tagged semiring (idempotent, commutative): a or b itself."""
    a.same_tag(b)
    return a if a.tag.ops.add(a.value, b.value) is a.value else b


def sr_mul(a: TropScalar, b: TropScalar) -> TropScalar:
    """a * b in the tagged semiring; the zero is absorbing."""
    a.same_tag(b)
    return TropScalar._fast(a.tag.ops.mul(a.value, b.value), a.tag)


def sr_residual(x: TropScalar, y: TropScalar) -> TropScalar:
    """Residuation x / y = max{lam : lam * y <= x} (canonical order).

    Subtraction in max-plus and min-plus, division in max-times.
    """
    x.same_tag(y)
    return TropScalar._fast(x.tag.ops.residual(x.value, y.value), x.tag)


def sr_star(a: TropScalar) -> TropScalar:
    """Star a* = 1 + a + a^2 + ...; diverges above the unit."""
    tag = a.tag
    if tag is BOOLEAN:
        return one(tag)
    if tag is MAX_TIMES:
        raise ValueError("scalar star is not provided for max-times")
    if a <= one(tag):
        return one(tag)
    raise Divergent(f"star of {a!r} is unbounded")


@dataclass(frozen=True)
class Interval:
    """Order interval [lo, hi] of same-tag scalars, lo <= hi canonically."""

    lo: TropScalar
    hi: TropScalar

    def __post_init__(self):
        self.lo.same_tag(self.hi)
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo!r}, {self.hi!r}")

    @property
    def tag(self) -> SemiringTag:
        return self.lo.tag

    def contains(self, x: TropScalar) -> bool:
        return self.lo <= x and x <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def interval(lo: ScalarLike, hi: ScalarLike, tag: SemiringTag = MAX_PLUS) -> Interval:
    return Interval(scalar(lo, tag), scalar(hi, tag))


def iv_binary(op: str, a: Interval, b: Interval) -> Interval:
    """Exact interval image of a monotone binary operation.

    add and mul are isotone in both arguments, so both endpoints are
    endpointwise images. residual is isotone in the numerator and antitone
    in the denominator: the image is [a.lo/b.hi, a.hi/b.lo]. Outputs are
    attained at input endpoints, which is what makes the estimates exact.
    """
    if a.tag is not b.tag:
        raise TagMismatch(f"{a.tag.value} vs {b.tag.value}")
    if op == "add":
        return Interval(sr_add(a.lo, b.lo), sr_add(a.hi, b.hi))
    if op == "mul":
        return Interval(sr_mul(a.lo, b.lo), sr_mul(a.hi, b.hi))
    if op == "residual":
        if b.lo.is_zero:
            raise DivisionByBottom("interval residual denominator contains the zero")
        return Interval(sr_residual(a.lo, b.hi), sr_residual(a.hi, b.lo))
    raise ValueError(f"unknown interval operation {op!r}")
