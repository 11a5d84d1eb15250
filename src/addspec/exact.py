"""Exact rational values on the standard library alone.

``ratio`` reads an int, a ``"p/q"`` string, a finite float or a Fraction as
its lowest-terms (numerator, denominator) pair, denominator positive: the
key that ``exponents`` interns lines by, so a point file is read without a
Fraction per coordinate.  ``as_fraction`` is the same value as a Fraction.

``Frozen`` is the base of every record in the package, the measure and
exponent values and the results of the numerical modules alike: it gives
them what a frozen dataclass would, without importing ``dataclasses`` or
generating code for each class at import.  A record's constructor is
written out by hand.  This module imports neither numpy nor ``measures``'
transform kernels, so ``analyze`` loads none of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

from .errors import MalformedInputError

RationalLike = Union[int, str, Fraction, float]


def ratio(value: RationalLike) -> Tuple[int, int]:
    """Lowest-terms (numerator, denominator) of an int, a rational string, a
    finite float or a Fraction; the denominator is positive."""
    if isinstance(value, str):
        try:
            # "-?digits" and "-?digits/digits" in ASCII skip the regex of
            # Fraction(str); every other string still goes through it
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isascii() and digits.isdigit():
                if not slash:
                    return int(num), 1
                if den.isascii() and den.isdigit():
                    n, d = int(num), int(den)
                    if d:
                        g = math.gcd(n, d)
                        return n // g, d // g
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"not a rational: {value!r}") from exc
        return f.numerator, f.denominator
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, float):
        if not math.isfinite(value):
            raise MalformedInputError(f"not a finite rational: {value!r}")
        return value.as_integer_ratio()
    raise MalformedInputError(f"not a rational: {value!r}")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, floats, and Fractions to an exact Fraction."""
    # Fraction is an ABC, so isinstance on it is slow; a str skips the check
    if type(value) is not str and isinstance(value, Fraction):
        return value
    return Fraction(*ratio(value))


class Frozen:
    """Immutable value whose constructor takes the fields ``_fields``, in
    order: ``==`` and ``hash`` go by the tuple of their values, ``repr``
    spells them out, copies and pickles are rebuilt through the constructor,
    and assigning or deleting an attribute raises AttributeError, as on a
    frozen dataclass.  Constructors set fields with ``object.__setattr__``.
    An attribute kept out of ``==``, ``hash`` and ``repr`` (a dataclass
    field with ``compare=False, repr=False``) is a slot left out of
    ``_fields``; a record whose constructor takes one overrides
    ``__reduce__`` to keep it in copies.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
