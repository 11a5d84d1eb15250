"""Compactly supported probability measures given as weighted interval unions.

Endpoints are exact rationals so that downstream point-set combinatorics can
decide "same interval" and disjointness questions exactly.  Each piece carries
uniform density weight/(right-left), and the Fourier transform of a piece has
the closed form

    weight * exp(pi*i*lam*(left+right)) * S(pi*lam*(right-left)),

with S(z) = sin(z)/z.  ``transform_rows`` evaluates it at the differences
(x_i - x_j)/D of a grid of integers over a common denominator D, the one
``exact_grid`` makes of exact values.  Every phase x h mod 1 is reduced in
integer arithmetic to a count of quarter turns (``residues``) and folded to
a quarter turn at most before it is rounded (``quarter_sine``), so each
value is a few ulps from exact however far the frequency or the support
sits from 0, and exactly 0 where the sine has a zero.  ``residues`` is the
one place that picks int64 or Python ints for those reductions, for h = p/q:
int64 while 4 max(1, max|x|) q < 2^62, where the 1 keeps p mod q itself in
range on an all-zero grid.

The measure is an ``exact.Frozen`` value, and ``as_fraction`` comes from
``exact`` too (it is still importable from here): ``analyze`` needs only
those, so it imports ``exact`` and never compiles this module's kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import MalformedInputError
from .exact import Frozen, RationalLike, as_fraction

WEIGHT_TOL = 1e-12


class IntervalUnionMeasure(Frozen):
    """Probability measure on the line: disjoint weighted intervals.

    ``pieces`` is a sorted tuple of (left, right, weight) with exact rational
    endpoints, left < right, non-overlapping interiors, and weights summing
    to 1 within WEIGHT_TOL.
    """

    __slots__ = ("pieces",)
    _fields = ("pieces",)

    def __init__(self, pieces: Tuple[Tuple[Fraction, Fraction, Fraction], ...]):
        if not pieces:
            raise MalformedInputError("measure needs at least one interval")
        norm = tuple(
            (as_fraction(l), as_fraction(r), as_fraction(w)) for l, r, w in pieces
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


INT64_SAFE = 2**62  # int64 holds every product of the phase reductions below it


def exact_grid(values, ids=None) -> Tuple[np.ndarray, int]:
    """``(grid, D)``: exact values as integer numerators over their least
    common denominator D, the one place where frequencies and coordinates
    become integers.

    Ints and Fractions carry their own numerator and denominator; anything
    else goes through ``as_fraction`` (a float by its exact binary value).
    With ``ids``, ``values`` are instead distinct lowest-terms (numerator,
    denominator) keys, every one of them used, and entry k of the grid is
    the numerator of key ids[k]: one numerator per key, gathered by index,
    so an exponent set's line keys give the grid of its points.  The grid
    is int64 while every numerator and D are below 2^62, else an object
    array of Python ints.  Values whose differences leave the float range
    raise MalformedInputError.
    """
    import numpy as np

    ratios = values if ids is not None else [
        (v if type(v) is Fraction or type(v) is int else as_fraction(v)).as_integer_ratio()
        for v in values
    ]
    D = math.lcm(*(d for _, d in ratios))
    nums = [n * (D // d) for n, d in ratios]
    top = max(map(abs, nums), default=0)
    if 2 * top > D * int(np.finfo(float).max):
        raise MalformedInputError("exact values exceed the float range")
    grid = np.array(nums, dtype=np.int64 if max(top, D) < INT64_SAFE else object)
    return (grid if ids is None else grid[ids]), D


def residues(x, h: Fraction):
    """4 (x p mod q), the quarter turns of x h mod 1, exactly, for each
    integer of the array ``x`` (h = p/q).

    The one int64 rule of the phase reductions: ``x`` becomes Python ints
    once 4 max(1, max|x|) q reaches 2^62 (p is reduced mod q first), and the
    result is int64 whenever 4q < 2^62.  The max(1, ...) widens an all-zero
    grid too, whose products are 0 but whose p mod q may not fit int64.
    """
    import numpy as np

    q = h.denominator
    if x.dtype == object or 4 * max(1, int(np.abs(x).max(initial=0))) * q >= INT64_SAFE:
        x = x.astype(object)
    k = 4 * (x * (h.numerator % q) % q)
    return k if 4 * q >= INT64_SAFE else k.astype(np.int64, copy=False)


def quarter_sine(m, q: int):
    """sin(pi (m - q) / (2q)) at each integer of the array ``m``, which it
    overwrites.  The turn is folded in integers to j = q - |m mod 4q - 2q|
    in [-q, q], a quarter turn at most, and then rounded (correctly, past
    2^53 too), so half and whole turns give exactly 0 and small or
    near-half turns keep their digits."""
    import numpy as np

    np.remainder(m, 4 * q, out=m)
    m -= 2 * q
    np.abs(m, out=m)
    np.subtract(q, m, out=m)
    if 2 * q > 2**53:
        # true division rounds correctly for Python ints of any size
        x = np.asarray(m.astype(object) / (2 * q), dtype=float) * np.pi
    else:
        x = m * (np.pi / (2 * q))
    return np.sin(x, out=x)


def unit_phase(nums, h: Fraction):
    """exp(2 pi i x h) at each integer x of ``nums``: cosine and sine from
    the exact quarter turns of x h mod 1 (``residues``, ``quarter_sine``), so
    quarter turns give exactly 0, +-1 and +-i."""
    import numpy as np

    q = h.denominator
    # cosine and sine side by side, so each row reads as one complex number
    m = residues(nums, h)[..., None] + np.array((2 * q, q))
    return quarter_sine(m, q).view(complex)[..., 0]


def transform_rows(m: IntervalUnionMeasure, grid, D: int, scale: float = 1.0):
    """``rows(rows, cols, out)`` writing scale * ft(m, (x_i - x_j) / D) for
    the integers x_i of grid[rows] against x_j of grid[cols]; exactly scale
    where (x_i - x_j) / D rounds to 0.

    Piece (l, r, w) gives  w u_i conj(u_j) sin(2 pi (k_i - k_j) / q) / z  with
    z = pi (x_i - x_j) (r - l) / D.  The phases u = e^{2 pi i x (l + r) / (2D)}
    and the residues k/q = x (r - l) / (2D) mod 1 are reduced once per point,
    so a pair's sine is ``quarter_sine`` of 4 (k_i - k_j) + q: exactly 0 at a
    half or whole turn, as at an odd or even integer difference on a piece
    of unit length.  ``grid`` is an ndarray, of Python ints once an entry, D
    or a product of the reductions reaches 2^62.
    """
    import numpy as np

    if D >= INT64_SAFE:
        grid = grid.astype(object)
    pieces = []
    for l, r, w in m.pieces:
        h = (r - l) / (2 * D)
        q = h.denominator
        k4 = residues(grid, h)
        u = unit_phase(grid, (l + r) / (2 * D))
        pieces.append((scale * float(w), u, k4 + q, k4, q, float(r - l)))

    def rows(sl, cols, out):
        # true division rounds correctly for Python ints of any size
        x = np.asarray((grid[sl, None] - grid[cols]) / D, dtype=float)
        out[...] = 0
        for w, u, k4_up, k4, q, width in pieces:
            term = np.multiply.outer(u[sl], w * u[cols].conj())
            z = np.pi * (x * width)
            sine = quarter_sine(np.subtract.outer(k4_up[sl], k4[cols]), q)
            # exactly 1 below |z| = 1e-8, where z may also be subnormal
            term *= np.divide(sine, z, out=np.ones_like(z), where=np.abs(z) >= 1e-8)
            out += term
        out[x == 0] = scale
        return out

    return rows


def fourier_transform(m: IntervalUnionMeasure, lam) -> complex:
    """Return the transform  integral of e^{2 pi i lam x} dm(x)  in closed form.

    Finite lam only, taken exactly (a float by its exact binary value): one
    entry of ``transform_rows`` on ``exact_grid([lam, 0])``, exactly 1 at
    lam = 0.
    """
    import numpy as np

    rows = transform_rows(m, *exact_grid([lam, 0]))
    return complex(rows(slice(0, 1), slice(1, 2), np.empty((1, 1), dtype=complex))[0, 0])


def support_bounds(m: IntervalUnionMeasure) -> Tuple[Fraction, Fraction]:
    """Smallest symmetric annulus [-M,-m] u [m,M] enclosing the support.

    Returns (m, M): the inner radius, which is the distance from 0 to the
    support (0 if the support contains 0), and the outer radius.
    """
    M_hi = max(max(abs(l), abs(r)) for l, r, _ in m.pieces)
    if any(l <= 0 <= r for l, r, _ in m.pieces):
        return Fraction(0), M_hi
    return min(min(abs(l), abs(r)) for l, r, _ in m.pieces), M_hi
