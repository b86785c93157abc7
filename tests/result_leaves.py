"""The values inside a public result, for properties that hold on whole results.

`leaves` walks lists, tuples, sets, dicts and records, the last through
each record class's `_fields`, down to the values that are none of these.
"""

from fractions import Fraction


def leaves(obj):
    """Every value in a result that is not a container or a record."""
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from leaves(item)
    elif isinstance(obj, dict):
        yield from leaves(list(obj.items()))
    elif hasattr(type(obj), "_fields"):
        yield from leaves([getattr(obj, name) for name in obj._fields])
    else:
        yield obj


def is_canonical(v):
    """An int exactly when v is integral, else a Fraction; never a float or a bool."""
    return type(v) is int or type(v) is Fraction and v.denominator != 1


def numbers(result) -> list:
    """The ints, floats and Fractions among a result's leaves; bools are not numbers here."""
    return [v for v in leaves(result) if isinstance(v, (int, float, Fraction)) and type(v) is not bool]
