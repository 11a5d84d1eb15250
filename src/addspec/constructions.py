"""Constructors for the explicit spectra and structured point sets.

Covers the non-overlapping doubled spectrum {(l,l)} u {(l,l+tau)}, the
antidiagonal half-integer sets that serve as orthonormal spectra, staircase
zigzags, and a schematic high-multiplicity generator whose zigzags grow with
depth.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import MalformedInputError, OverlappingSupportError
from .exact import Frozen
from .exponents import ExponentPair, ExponentSet, ZigzagPath
from .measures import IntervalUnionMeasure, as_fraction, support_bounds


def staircase_zigzag(length: int, start=(0, 0)) -> ZigzagPath:
    """Monotone staircase zigzag of the given length from ``start``, one unit
    per move: a zag (a unit step up) first, then zigs (steps right) and zags
    in turn."""
    if length < 0:
        raise MalformedInputError("length must be non-negative")
    x = as_fraction(start[0])
    y = as_fraction(start[1])
    verts = [ExponentPair(x, y)]
    for i in range(length):
        if i % 2:
            x += 1
        else:
            y += 1
        verts.append(ExponentPair(x, y))
    return ZigzagPath(tuple(verts))


class NonOverlapSpectrum(Frozen):
    """Doubled spectrum for a component measure supported away from 0.

    pairs = {(l, l)} u {(l, l + tau)} over the caller-supplied base, with
    tau = 1/(2M) and epsilon = min(1/2, m/(2M)) from the support annulus.
    The pair list interleaves (l, l), (l, l + tau) in base order, so nested
    prefixes cover nested base truncations.
    """

    __slots__ = ("base", "tau", "epsilon", "pairs")
    _fields = ("base", "tau", "epsilon", "pairs")

    def __init__(self, base: Tuple[Fraction, ...], tau: Fraction, epsilon: Fraction,
                 pairs: ExponentSet):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "pairs", pairs)


def nonoverlap_riesz_spectrum(m: IntervalUnionMeasure, base: Iterable) -> NonOverlapSpectrum:
    """Build the doubled spectrum; requires 0 outside the support of ``m``."""
    m_lo, M_hi = support_bounds(m)
    if m_lo == 0:
        raise OverlappingSupportError(
            "support contains 0; the non-overlap construction does not apply"
        )
    tau = Fraction(1, 2) / M_hi
    epsilon = min(Fraction(1, 2), m_lo / (2 * M_hi))
    base = tuple(as_fraction(x) for x in base)
    if len(set(base)) != len(base):
        raise MalformedInputError("duplicate base frequencies")
    if not base:
        raise MalformedInputError("empty base")
    pts: List[ExponentPair] = []
    for lam in base:
        pts.append(ExponentPair(lam, lam))
        pts.append(ExponentPair(lam, lam + tau))
    return NonOverlapSpectrum(base=base, tau=tau, epsilon=epsilon, pairs=ExponentSet.of(pts))


def nonoverlap_margins(m: IntervalUnionMeasure, tau: Fraction, epsilon: Fraction) -> bool:
    """Exact rational check: epsilon <= |tau*x| <= 1 - epsilon at all endpoints."""
    for l, r, _ in m.pieces:
        for x in (l, r):
            if not (epsilon <= abs(tau * x) <= 1 - epsilon):
                return False
    return True


def m_tau_eigenvalues(tau, x) -> Tuple[float, float]:
    """Eigenvalues (2 - 2cos(pi tau x), 2 + 2cos(pi tau x)) of the 2x2 mixing form."""
    arg = math.pi * float(tau) * float(x)
    c = math.cos(arg)
    return 2.0 - 2.0 * c, 2.0 + 2.0 * c


def l_space_onb(N: int) -> ExponentSet:
    """Antidiagonal half-integer truncation {(n/2, -n/2): |n| <= N}."""
    if N < 0:
        raise MalformedInputError("N must be non-negative")
    half = Fraction(1, 2)
    return ExponentSet.of(
        ExponentPair(n * half, -n * half) for n in range(-int(N), int(N) + 1)
    )


def mirror_spectrum(k: int, N: int) -> ExponentSet:
    """Antidiagonal truncation for the space with both components on [k, k+1].

    A validated alias of ``l_space_onb(N)``: the point set is the same for
    every integer k >= 1, and its orthogonality on the intended space is
    verified by the Gram identity check, not assumed.
    """
    if int(k) != k or k < 1:
        raise MalformedInputError("k must be an integer >= 1")
    return l_space_onb(N)


def lev_style_set(q: int, depth: int) -> ExponentSet:
    """Schematic set whose used lines carry >= q points out to the given depth.

    A staircase spine of the given length is padded so every spine line holds
    exactly q points; padding sits on fresh one-point boundary lines past the
    horizon.  The spine (in insertion order first) witnesses a zigzag of
    length >= depth, so Gram sections covering it degrade like 2/(depth+1).
    """
    if q < 2:
        raise MalformedInputError("q must be >= 2")
    if depth < 1:
        raise MalformedInputError("depth must be >= 1")
    spine = staircase_zigzag(depth)
    pts = list(spine.vertices)
    per_x = Counter(p.a for p in pts)
    per_y = Counter(p.b for p in pts)
    fresh = itertools.count(1)
    for a in sorted(per_x):
        for _ in range(q - per_x[a]):
            pts.append(ExponentPair(a, Fraction(-next(fresh))))
    for b in sorted(per_y):
        for _ in range(q - per_y[b]):
            pts.append(ExponentPair(Fraction(-next(fresh)), b))
    return ExponentSet.of(pts)


def integer_base(N: int) -> Tuple[Fraction, ...]:
    """Z cap [-N, N] ordered by absolute value: 0, 1, -1, 2, -2, ..."""
    if N < 0:
        raise MalformedInputError("N must be non-negative")
    out = [Fraction(0)]
    for k in range(1, int(N) + 1):
        out.append(Fraction(k))
        out.append(Fraction(-k))
    return tuple(out)
