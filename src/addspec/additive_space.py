"""The additive measure rho = (mu x delta_0 + delta_0 x nu)/2 and its inner products.

An exponential e_{a,b}(x,y) = exp(2 pi i (ax+by)) restricted to the two axes
has projections e_a and e_b, so

    <e_{a,b}, e_{u,v}>_rho = ft(mu, a-u)/2 + ft(nu, b-v)/2,

which makes every Gram entry a two-term closed form.  ``exp_inner`` is the
scalar reference: it passes the exact Fraction differences, so the phase is
reduced mod 2 exactly (see ``measures.fourier_transform``); ``gram.assemble``
evaluates the same closed form for a whole section at once, with the phase
split into exactly reduced per-point factors.  General functions are
supported only as piecewise polynomials integrated by Gauss-Legendre
quadrature: one rule per overlap of a measure piece and a function piece,
sized to the largest |freq| in the call, so a whole frame sum over many
frequencies builds a handful of rules.

The exponent pairs themselves, ``ExponentPair``, are defined in ``exponents``
(which needs no numpy) and imported here, so
``addspec.additive_space.ExponentPair`` names the same class.  numpy is
imported inside the functions that compute with it, so importing this module
loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .errors import MalformedInputError
from .exponents import ExponentPair
from .measures import IntervalUnionMeasure, as_fraction, fourier_transform


@dataclass(frozen=True)
class AdditiveSpace:
    """Pair of component measures placed on the x and y axes."""

    mu: IntervalUnionMeasure
    nu: IntervalUnionMeasure


def l_space() -> AdditiveSpace:
    """Both components uniform on [0, 1]."""
    u = IntervalUnionMeasure.unit_interval(0)
    return AdditiveSpace(u, u)


def plus_space() -> AdditiveSpace:
    """Both components uniform on [-1/2, 1/2]."""
    u = IntervalUnionMeasure.unit_interval(Fraction(-1, 2))
    return AdditiveSpace(u, u)


def t_space() -> AdditiveSpace:
    """[-1/2, 1/2] on the x axis, [-1, 0] on the y axis."""
    return AdditiveSpace(
        IntervalUnionMeasure.unit_interval(Fraction(-1, 2)),
        IntervalUnionMeasure.unit_interval(-1),
    )


def symmetric_space(t) -> AdditiveSpace:
    """Both components uniform on [t, t+1]."""
    u = IntervalUnionMeasure.unit_interval(as_fraction(t))
    return AdditiveSpace(u, u)


def space_from_name(name: str) -> AdditiveSpace:
    """Resolve a preset name: "L", "Plus", "T", or "Symmetric:t=p/q"."""
    if name == "L":
        return l_space()
    if name == "Plus":
        return plus_space()
    if name == "T":
        return t_space()
    if name.startswith("Symmetric:t="):
        return symmetric_space(as_fraction(name[len("Symmetric:t="):]))
    raise MalformedInputError(f"unknown space preset {name!r}")


@dataclass(frozen=True)
class FiniteCombination:
    """Finite linear combination of exponentials; pairs are distinct."""

    terms: Tuple[Tuple[ExponentPair, complex], ...]

    def __post_init__(self):
        terms = tuple((p, complex(c)) for p, c in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise MalformedInputError("combination needs at least one term")
        pairs = [p for p, _ in terms]
        if len(set(pairs)) != len(pairs):
            raise MalformedInputError("combination has duplicate exponent pairs")

    def scaled(self, z: complex) -> "FiniteCombination":
        return FiniteCombination(tuple((p, z * c) for p, c in self.terms))


def exp_inner(s: AdditiveSpace, p: ExponentPair, q: ExponentPair) -> complex:
    """Inner product of two exponentials in L^2(rho); Hermitian, unit diagonal."""
    if p == q:
        return complex(1.0)
    return 0.5 * fourier_transform(s.mu, p.a - q.a) + 0.5 * fourier_transform(s.nu, p.b - q.b)


def combination_norm_sq(s: AdditiveSpace, c: FiniteCombination) -> float:
    """Squared norm of a finite combination via the exact quadratic form."""
    total = 0j
    for p, cp in c.terms:
        for q, cq in c.terms:
            total += cp * cq.conjugate() * exp_inner(s, p, q)
    return total.real


def projection_coefficients(c: FiniteCombination, axis: str) -> Dict[Fraction, complex]:
    """Column (axis="x") or row (axis="y") sums of the coefficient grid.

    Zero sums are kept; dropping them is the caller's decision.
    """
    if axis not in ("x", "y"):
        raise MalformedInputError(f"axis must be 'x' or 'y', got {axis!r}")
    out: Dict[Fraction, complex] = {}
    for p, coeff in c.terms:
        key = p.a if axis == "x" else p.b
        out[key] = out.get(key, 0j) + coeff
    return out


# ---------------------------------------------------------------------------
# Piecewise-polynomial test functions and quadrature against a measure.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial pieces (left, right, coeffs) in the global coordinate.

    Coefficients are low-to-high degree.  The function is zero outside its
    pieces, which lets a function supported on part of a measure's support
    (such as a rescaled window) integrate correctly.
    """

    pieces: Tuple[Tuple[Fraction, Fraction, Tuple[complex, ...]], ...]

    def __post_init__(self):
        norm = tuple(
            (as_fraction(l), as_fraction(r), tuple(complex(c) for c in coeffs))
            for l, r, coeffs in self.pieces
        )
        object.__setattr__(self, "pieces", norm)
        for l, r, coeffs in norm:
            if not l < r:
                raise MalformedInputError(f"empty piece [{l}, {r}]")
            if not coeffs:
                raise MalformedInputError("piece needs at least one coefficient")

    def __call__(self, x):
        import numpy as np
        from numpy.polynomial.polynomial import polyval

        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for l, r, coeffs in self.pieces:
            mask = (x >= float(l)) & (x <= float(r))
            if mask.any():
                out[mask] = polyval(x[mask], np.asarray(coeffs))
        return out

    def negated(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            tuple((l, r, tuple(-c for c in coeffs)) for l, r, coeffs in self.pieces)
        )

    @classmethod
    def constant(cls, intervals, value=1.0) -> "PiecewisePolynomial":
        return cls(tuple((l, r, (complex(value),)) for l, r in intervals))

    @classmethod
    def monomial(cls, intervals, degree: int) -> "PiecewisePolynomial":
        coeffs = (0.0,) * degree + (1.0,)
        return cls(tuple((l, r, coeffs) for l, r in intervals))


def support_intervals(m: IntervalUnionMeasure):
    return tuple((l, r) for l, r, _ in m.pieces)


@lru_cache(maxsize=None)
def _leggauss(n: int):
    import numpy as np

    return np.polynomial.legendre.leggauss(n)


def _gl_order(degree: int, cycles: float) -> int:
    # exactness needs ~ pi*|lam|*len/2 nodes for the oscillatory factor;
    # 2.0 per unit of |lam|*len leaves a wide margin
    return int(math.ceil(2.0 * cycles)) + degree + 16


# frequencies per block of exponentials, so memory does not grow with their number
FREQ_BLOCK = 256


def measure_integral(m: IntervalUnionMeasure, fn: PiecewisePolynomial, freq=0.0):
    """Gauss-Legendre evaluation of  integral of fn(x) e^{2 pi i freq x} dm(x).

    ``freq`` is a scalar (a complex is returned) or an array of frequencies
    (an array of the same shape is returned).  Each overlap of a measure
    piece and a function piece gets one rule, sized to the largest |freq| in
    the call; the polynomial is evaluated once at its nodes and the
    exponentials are applied FREQ_BLOCK frequencies at a time.
    """
    import numpy as np
    from numpy.polynomial.polynomial import polyval

    freqs = np.asarray(freq, dtype=float)
    flat = freqs.ravel()
    top = float(np.max(np.abs(flat), initial=0.0))
    total = np.zeros(flat.shape, dtype=complex)
    for ml, mr, w in m.pieces:
        dens = float(w) / float(mr - ml)
        for fl, fr, coeffs in fn.pieces:
            lo = max(ml, fl)
            hi = min(mr, fr)
            if not lo < hi:
                continue
            half = float(hi - lo) / 2.0
            mid = float(hi + lo) / 2.0
            nodes, weights = _leggauss(_gl_order(len(coeffs) - 1, top * 2 * half))
            x = mid + half * nodes
            wp = dens * half * weights * polyval(x, np.asarray(coeffs))
            for s in range(0, flat.size, FREQ_BLOCK):
                block = flat[s : s + FREQ_BLOCK]
                total[s : s + FREQ_BLOCK] += np.exp(2j * np.pi * np.outer(block, x)) @ wp
    return complex(total[0]) if freqs.ndim == 0 else total.reshape(freqs.shape)


def measure_norm_sq(m: IntervalUnionMeasure, fn: PiecewisePolynomial) -> float:
    """Integral of |fn|^2 dm, exact for polynomial pieces."""
    import numpy as np
    from numpy.polynomial.polynomial import polymul

    sq = PiecewisePolynomial(
        tuple(
            (l, r, tuple(polymul(coeffs, np.conj(coeffs))))
            for l, r, coeffs in fn.pieces
        )
    )
    return measure_integral(m, sq, 0.0).real


def frame_coefficients(
    s: AdditiveSpace,
    fn_pair: Tuple[PiecewisePolynomial, PiecewisePolynomial],
    pairs: Sequence[ExponentPair],
) -> np.ndarray:
    """<F, e_{a,b}> in L^2(rho) for each pair, F given by its axis projections (f, g)."""
    import numpy as np

    f, g = fn_pair
    a = np.array([-float(p.a) for p in pairs])
    b = np.array([-float(p.b) for p in pairs])
    return 0.5 * measure_integral(s.mu, f, a) + 0.5 * measure_integral(s.nu, g, b)


def pair_norm_sq(
    s: AdditiveSpace, fn_pair: Tuple[PiecewisePolynomial, PiecewisePolynomial]
) -> float:
    f, g = fn_pair
    return 0.5 * measure_norm_sq(s.mu, f) + 0.5 * measure_norm_sq(s.nu, g)
