"""Scalar idempotent semiring arithmetic with residuation, star, and exact intervals.

Four tagged semirings are supported:

    max-plus   (Q u {-inf}, max, +)     zero = -inf, unit = 0
    min-plus   (Q u {+inf}, min, +)     zero = +inf, unit = 0
    max-times  (Q+, max, *)             zero = 0,    unit = 1
    boolean    ({False, True}, or, and)

A payload is the raw value behind a scalar: an exact rational, an `int`
exactly when it is integral and else a `fractions.Fraction` (so the
max-times zero is `0`), `None` for the bottoms -inf and +inf, or a `bool`
for the boolean tag. Coercion (`_rational`, for a caller's rational in any
module) and every law that makes a new value return this canonical form.
`payload_of` is the one scalar reader, behind `TropScalar`, `scalar`,
`vector`, `matrix` and the file codecs. It takes exactly the spellings its
docstring lists, so that every identity tested downstream holds with
equality, not tolerance. `vector` and `matrix` read rows through the row
reader `payloads_of`: `payload_of` per cell, unless one C-level pass over
the exact types of the cells finds the whole row already canonical, so a
row of ints and None costs no per-cell call; the file codecs read cell by
cell. Integer kernels scale payloads by `_scaled` and come back through
`_unscaled`.
`PayloadOps` holds each tag's laws on payloads, its sum of products `dot`
among them, and the scalar operations and every matrix kernel read them
there; `TropScalar`'s `+`, `*`, `/` and `star` are `sr_add`, `sr_mul`,
`sr_residual` and `sr_star` themselves.
The canonical order of an idempotent semiring (a <= b  iff  a + b == b) is
the one used everywhere; note that for min-plus it is the reverse of the
numeric order. It is a chain, so `TropScalar` defines only `<=` and derives
`>=`, `<` and `>`; comparing a scalar with a non-scalar raises.
`_record` turns a class with annotated fields into a frozen record, with
the constructor, equality, hash and repr `dataclasses` would give it but
none of its per-method `exec` or its import of `inspect`; every value
class of the package, `TropScalar` and `PayloadOps` here included, is one.
It also gives each record the one trusted constructor, `_trusted(*values)`,
through which kernels box the payloads they computed unchecked, and the one
copy protocol: `copy`, `deepcopy` and `pickle` rebuild a record from its
fields through `_trusted`. `_trusted` writes fields with
`object.__setattr__`, so a record may keep its fields in `__slots__`, as
`TropVector` and `TropMatrix` do.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence, Tuple, Union

from .errors import DivisionByBottom, Divergent, TagMismatch


class SemiringTag(enum.Enum):
    MAX_PLUS = "max-plus"
    MIN_PLUS = "min-plus"
    MAX_TIMES = "max-times"
    BOOLEAN = "boolean"

    @functools.cached_property
    def ops(self) -> "PayloadOps":
        return _OPS[self]


MAX_PLUS = SemiringTag.MAX_PLUS
MIN_PLUS = SemiringTag.MIN_PLUS
MAX_TIMES = SemiringTag.MAX_TIMES
BOOLEAN = SemiringTag.BOOLEAN

Payload = Union[int, Fraction, None, bool]
ScalarLike = Union["TropScalar", Fraction, int, str, bool, None]


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s: str) -> Fraction:
    """The rational a string spells: an optional sign, ASCII digits, and
    optionally "/" and more ASCII digits. Anything else (exponents, decimal
    points, "_" separators, whitespace) and a zero denominator raise
    ValueError, so no string costs more than reading its digits."""
    m = _RATIONAL.fullmatch(s)
    if m is None or (m[2] is not None and not int(m[2])):
        raise ValueError(f"bad rational {s!r}; want p or p/q, q > 0, in ASCII digits")
    return Fraction(int(m[1]), int(m[2] or 1))


def _canonical(v):
    """A rational's canonical payload: an int exactly when it is integral.
    Never pass a bool: its denominator is 1 too, so True would become 1."""
    return v.numerator if v.denominator == 1 else v


def _rational(v):
    """The canonical payload of an exact rational: an int, a Fraction or a
    "p/q" string (see `parse_rational`). A float, a bool or anything else
    raises TypeError, so no caller's value enters a kernel inexactly."""
    if isinstance(v, str):
        v = parse_rational(v)
    elif isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise TypeError(f"exact rational required, got {v!r}")
    return _canonical(v)


def _scaled(values: list, scale: int = 1):
    """(ints, L): the canonical payloads times one integer L, None kept as
    None, where L is `scale` times the lcm of their denominators. The list
    itself comes back when it holds no Fraction and scale is 1. `_unscaled`
    is the inverse: `_unscaled(ints[i], L)` is values[i]."""
    if Fraction in set(map(type, values)):
        scale *= lcm(*{v.denominator for v in values if type(v) is Fraction})
        return [None if v is None else v.numerator * (scale // v.denominator) for v in values], scale
    if scale == 1:
        return values, 1
    return [None if v is None else v * scale for v in values], scale


def _unscaled(v, scale: int):
    """v / scale as a canonical payload; None stays None."""
    if v is None:
        return None
    return Fraction(v, scale) if v % scale else v // scale


def payload_of(value: ScalarLike, tag: SemiringTag) -> Payload:
    """The payload of a scalar-like value: the one scalar reader.

    It reads a same-tag TropScalar; an int, a Fraction or a "p/q" string
    (see `parse_rational`); "-inf" under max-plus and "+inf" under min-plus;
    None for the zero of any tag but boolean; and under the boolean tag only
    a bool or the int 0 or 1. Anything else raises, whitespace, any other
    spelling of infinity and floats included: the toolkit is exact.
    """
    if isinstance(value, TropScalar):
        if value.tag is not tag:
            raise TagMismatch(f"{value.tag.value} vs {tag.value}")
        return value.value
    if tag is BOOLEAN:
        if type(value) is bool or type(value) is int and value in (0, 1):
            return bool(value)
        raise TypeError(f"boolean scalar needs a bool or the int 0 or 1, got {value!r}")
    if isinstance(value, str):
        if value in ("-inf", "+inf"):
            if tag is not (MAX_PLUS if value == "-inf" else MIN_PLUS):
                raise ValueError(f"{value} is not an element of {tag.value}")
            return None
    elif value is None:
        return tag.ops.zero
    value = _rational(value)
    if tag is MAX_TIMES and value < 0:
        raise ValueError("max-times scalars are nonnegative rationals")
    return value


# the exact types of the values that are their own payloads under each tag
# (under max-times only those >= 0)
_OWN_TYPES = {
    MAX_PLUS: frozenset({int, type(None)}),
    MIN_PLUS: frozenset({int, type(None)}),
    MAX_TIMES: frozenset({int}),
    BOOLEAN: frozenset({bool}),
}


def payloads_of(row: Iterable[ScalarLike], tag: SemiringTag) -> Tuple[Payload, ...]:
    """The row reader: `tuple(payload_of(v, tag) for v in row)`, with the
    same payloads and the same exceptions.

    One C-level pass over the exact types of the cells decides whether every
    cell already is its own payload: ints and None under max-plus and
    min-plus, ints >= 0 under max-times, bools under boolean. Such a row
    comes back as a tuple without a per-cell call; any other row, one
    holding a bool, an int subclass, a Fraction or a string included, is
    read cell by cell.
    """
    row = tuple(row)
    if set(map(type, row)) <= _OWN_TYPES[tag] and (tag is not MAX_TIMES or not row or min(row) >= 0):
        return row
    return tuple([payload_of(v, tag) for v in row])


# -- the semiring laws on payloads ---------------------------------------------
# A sum returns one of its operands, the left one on ties, so folds keep
# their first best term. A dot product returns the payload of the fold of
# `add` over `mul` of the pairs; equal values have one canonical payload, so
# its tie rule is free. The plus tags run it in one pass of inline `+` and
# compares and canonicalise only the result.


def _add_max(a, b):
    if a is None:
        return b
    return a if b is None or a >= b else b


def _add_min(a, b):
    if a is None:
        return b
    return a if b is None or a <= b else b


def _le_max(a, b):
    return a is None or (b is not None and a <= b)


def _le_min(a, b):
    return a is None or (b is not None and a >= b)


def _mul_plus(a, b):
    if a is None or b is None:
        return None
    c = a + b
    return c if type(c) is int else _canonical(c)


def _mul_times(a, b):
    c = a * b
    return c if type(c) is int else _canonical(c)


def _dot_max_plus(row, xs):
    best = None
    for a, x in zip(row, xs):
        if a is not None and x is not None:
            t = a + x
            if best is None or t > best:
                best = t
    return best if best is None or type(best) is int else _canonical(best)


def _dot_min_plus(row, xs):
    best = None
    for a, x in zip(row, xs):
        if a is not None and x is not None:
            t = a + x
            if best is None or t < best:
                best = t
    return best if best is None or type(best) is int else _canonical(best)


def _dot_max_times(row, xs):
    return max(map(_mul_times, row, xs), default=0)


def _dot_boolean(row, xs):
    return any(map(operator.and_, row, xs))


def _residual_plus(x, y):
    if y is None:
        raise DivisionByBottom("residual denominator is the semiring zero")
    if x is None:
        return None
    c = x - y
    return c if type(c) is int else _canonical(c)


def _residual_times(x, y):
    if y == 0:
        raise DivisionByBottom("residual denominator is the semiring zero")
    return _canonical(Fraction(x, y))


def _residual_boolean(x, y):
    raise ValueError("residuation needs a semifield tag, not boolean")


# -- frozen records --------------------------------------------------------------


def _record(cls):
    """Make cls a frozen record of its annotated fields, a record base class's
    fields first, listed in order as `cls._fields`. It gets the methods
    `dataclass(frozen=True)` would write, built without `exec`:

    - `__init__`, by position or keyword, a field's class attribute as its
      default, then `__post_init__` when the class has one;
    - `==` only between instances of one class, on their field tuples, and
      `hash` of the field tuple;
    - `Name(field=value, ...)` as repr;
    - assigning or deleting a field raises AttributeError, and so does any
      attribute on an instance of cls itself; an undecorated subclass may set
      attributes that are not fields.

    Two more methods carry a record's value without re-reading it:

    - the classmethod `_trusted(*values)` builds an instance from its field
      values in field order, without `__init__` or `__post_init__`: a kernel
      boxes the payloads it computed there, and nothing is checked or copied
      but their count, which must match the fields (else ValueError);
    - `__reduce__` rebuilds a record through `_trusted`, for `copy`,
      `deepcopy` and `pickle`. It carries the fields alone: an attribute an
      undecorated subclass set and a `cached_property` cache (such as
      `HomogeneousMap._compiled`) are not part of the value, so a copy drops
      them and rebuilds a cache on first use.

    `_trusted` writes each field with `object.__setattr__`, which fills a
    `__slots__` entry and an instance `__dict__` alike, so a record may
    declare its fields as slots (`TropVector` and `TropMatrix` do). A method
    the class defines itself is kept. Constructors and `__post_init__` write
    fields through `object.__setattr__` or `__dict__`.
    """
    inherited = getattr(cls, "_fields", ())
    names = inherited + tuple(n for n in cls.__dict__.get("__annotations__", ()) if n not in inherited)
    get = operator.attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")
    new, put = object.__new__, object.__setattr__

    def _trusted(cls, *values):
        obj = new(cls)
        for name, value in zip(names, values, strict=True):
            put(obj, name, value)
        return obj

    def __reduce__(self):
        return self._trusted, key(self)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bound(cls, names, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, key(self)))})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (classmethod(_trusted), __reduce__, __init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls._fields = cls.__match_args__ = names
    return cls


def _bound(cls, names: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of a record call that passes keywords or leaves
    defaults out, or the TypeError that call raises."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif hasattr(cls, name):
            values.append(getattr(cls, name))
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    if kwargs:
        name = next(iter(kwargs))
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
    return values


@_record
class PayloadOps:
    """One tag's semiring laws on raw payloads: a kernel picks them once per call.

    `dot(row, xs)` is the sum of row_j xs_j over the pairs, the payload of
    `reduce(add, map(mul, row, xs), zero)`: every kernel that sums products
    calls it, and no other fold of them is written outside this module.
    `residual` raises DivisionByBottom on a zero denominator, and ValueError
    for boolean. `le` is the canonical order (a <= b iff a + b == b),
    computed directly.
    """

    add: Callable[[Payload, Payload], Payload]
    mul: Callable[[Payload, Payload], Payload]
    dot: Callable[[Sequence[Payload], Sequence[Payload]], Payload]
    residual: Callable[[Payload, Payload], Payload]
    le: Callable[[Payload, Payload], bool]
    zero: Payload
    unit: Payload


_OPS = {
    MAX_PLUS: PayloadOps(_add_max, _mul_plus, _dot_max_plus, _residual_plus, _le_max, None, 0),
    MIN_PLUS: PayloadOps(_add_min, _mul_plus, _dot_min_plus, _residual_plus, _le_min, None, 0),
    MAX_TIMES: PayloadOps(_add_max, _mul_times, _dot_max_times, _residual_times, operator.le, 0, 1),
    BOOLEAN: PayloadOps(operator.or_, operator.and_, _dot_boolean, _residual_boolean, operator.le, False, True),
}


def sr_add(a: TropScalar, b: TropScalar) -> TropScalar:
    """a + b in the tagged semiring (idempotent, commutative): a or b itself."""
    a.same_tag(b)
    return a if a.tag.ops.add(a.value, b.value) is a.value else b


def sr_mul(a: TropScalar, b: TropScalar) -> TropScalar:
    """a * b in the tagged semiring; the zero is absorbing."""
    a.same_tag(b)
    return TropScalar._trusted(a.tag.ops.mul(a.value, b.value), a.tag)


def sr_residual(x: TropScalar, y: TropScalar) -> TropScalar:
    """Residuation x / y = max{lam : lam * y <= x} (canonical order).

    Subtraction in max-plus and min-plus, division in max-times.
    """
    x.same_tag(y)
    return TropScalar._trusted(x.tag.ops.residual(x.value, y.value), x.tag)


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


@functools.total_ordering
@_record
class TropScalar:
    """An element of a tagged idempotent semiring (value or bottom)."""

    value: object
    tag: SemiringTag

    def __post_init__(self):
        object.__setattr__(self, "value", payload_of(self.value, self.tag))

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

    __add__ = sr_add
    __mul__ = sr_mul
    __truediv__ = sr_residual
    star = sr_star

    # the canonical order (a <= b iff a + b == b); >=, < and > derive from it
    def __le__(self, other: "TropScalar") -> bool:
        self.same_tag(other)
        return self.tag.ops.le(self.value, other.value)

    def __repr__(self) -> str:
        if self.tag is BOOLEAN:
            return "T" if self.value else "F"
        if self.value is None:
            return "-inf" if self.tag is MAX_PLUS else "+inf"
        return str(self.value)


def scalar(value: ScalarLike, tag: SemiringTag = MAX_PLUS) -> TropScalar:
    """Convenience constructor accepting ints, Fractions, "p/q", bottoms."""
    return TropScalar._trusted(payload_of(value, tag), tag)


def zero(tag: SemiringTag) -> TropScalar:
    return TropScalar._trusted(tag.ops.zero, tag)


def one(tag: SemiringTag) -> TropScalar:
    return TropScalar._trusted(tag.ops.unit, tag)


@_record
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
