"""Compactly supported probability measures given as weighted interval unions.

Endpoints are exact rationals so that downstream point-set combinatorics can
decide "same interval" and disjointness questions exactly.  Each piece carries
uniform density weight/(right-left), and the Fourier transform of a piece has
the closed form

    weight * exp(pi*i*lam*(left+right)) * S(pi*lam*(right-left)),

with S(z) = sin(z)/z.  The frequency is taken exactly and the phase
lam*(left+right) is reduced mod 2 in exact arithmetic before it is rounded,
so every transform value is a few ulps from exact however far lam or the
support sits from 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

from .errors import MalformedInputError

RationalLike = Union[int, str, Fraction, float]

WEIGHT_TOL = 1e-12


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, floats, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise MalformedInputError(f"not a finite rational: {value!r}")
        return Fraction(value)
    raise MalformedInputError(f"not a rational: {value!r}")


def _sin_over(z: float) -> float:
    # series below the cutoff avoids 0/0 at the removable singularity
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


@dataclass(frozen=True)
class IntervalUnionMeasure:
    """Probability measure on the line: disjoint weighted intervals.

    ``pieces`` is a sorted tuple of (left, right, weight) with exact rational
    endpoints, left < right, non-overlapping interiors, and weights summing
    to 1 within WEIGHT_TOL.
    """

    pieces: Tuple[Tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.pieces:
            raise MalformedInputError("measure needs at least one interval")
        norm = tuple(
            (as_fraction(l), as_fraction(r), as_fraction(w)) for l, r, w in self.pieces
        )
        object.__setattr__(self, "pieces", norm)
        for l, r, w in norm:
            if not l < r:
                raise MalformedInputError(f"empty interval [{l}, {r}]")
            if not w > 0:
                raise MalformedInputError(f"non-positive weight {w}")
        for (_, r0, _), (l1, _, _) in zip(norm, norm[1:]):
            if r0 > l1:
                raise MalformedInputError("intervals overlap or are unsorted")
        total = sum(w for _, _, w in norm)
        if abs(float(total) - 1.0) > WEIGHT_TOL:
            raise MalformedInputError(f"weights sum to {float(total)}, not 1")

    @classmethod
    def from_pieces(cls, pieces: Iterable[Sequence[RationalLike]]) -> "IntervalUnionMeasure":
        return cls(tuple((as_fraction(l), as_fraction(r), as_fraction(w)) for l, r, w in pieces))

    @classmethod
    def unit_interval(cls, t: RationalLike) -> "IntervalUnionMeasure":
        """Uniform measure on [t, t+1]."""
        t = as_fraction(t)
        return cls(((t, t + 1, Fraction(1)),))

    def to_json(self) -> list:
        return [
            {"left": str(l), "right": str(r), "weight": str(w)} for l, r, w in self.pieces
        ]

    @classmethod
    def from_json(cls, data) -> "IntervalUnionMeasure":
        if not isinstance(data, list):
            raise MalformedInputError("measure literal must be a JSON array")
        pieces = []
        for item in data:
            try:
                pieces.append((item["left"], item["right"], item["weight"]))
            except (TypeError, KeyError) as exc:
                raise MalformedInputError(f"bad measure piece: {item!r}") from exc
        return cls.from_pieces(pieces)


def fourier_transform(m: IntervalUnionMeasure, lam) -> complex:
    """Return the transform  integral of e^{2 pi i lam x} dm(x)  in closed form.

    Exactly 1 at lam = 0; finite lam only.  ``lam`` is taken exactly (a float
    by its exact binary value) and the phase lam*(l+r) is reduced mod 2
    before rounding, so the value stays a few ulps from exact however far
    lam or the support is from 0.
    """
    lam = as_fraction(lam)
    if lam == 0:
        return complex(1.0)
    out = 0j
    for l, r, w in m.pieces:
        phase = cmath.exp(1j * math.pi * float(lam * (l + r) % 2))
        out += float(w) * phase * _sin_over(math.pi * float(lam * (r - l)))
    return out


def support_bounds(m: IntervalUnionMeasure) -> Tuple[Fraction, Fraction]:
    """Smallest symmetric annulus [-M,-m] u [m,M] enclosing the support.

    Returns (m, M): the inner radius, which is the distance from 0 to the
    support (0 if the support contains 0), and the outer radius.
    """
    M_hi = max(max(abs(l), abs(r)) for l, r, _ in m.pieces)
    if any(l <= 0 <= r for l, r, _ in m.pieces):
        return Fraction(0), M_hi
    return min(min(abs(l), abs(r)) for l, r, _ in m.pieces), M_hi
