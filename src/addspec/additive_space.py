"""The additive measure rho = (mu x delta_0 + delta_0 x nu)/2 and its inner products.

An exponential e_{a,b}(x,y) = exp(2 pi i (ax+by)) restricted to the two axes
has projections e_a and e_b, so

    <e_{a,b}, e_{u,v}>_rho = ft(mu, a-u)/2 + ft(nu, b-v)/2,

which makes every Gram entry a two-term closed form: ``exp_inner`` takes one
entry from the difference kernel ``measures.transform_rows``, and
``gram.assemble`` a whole section from it, through a table over the span
of the differences or on the points themselves.  General functions are
supported only as piecewise polynomials, integrated in closed form: on each
overlap of a measure piece and a function piece, the moments of
t^k e^{i omega t} on [-1, 1] for all frequencies at once, with the phases
reduced exactly by ``measures.unit_phase``.  The cost does not grow with
|freq|, and the values stay a few ulps from exact.  Frame coefficients hand
the quadrature each axis's integer numerators over one denominator, negated
as integers; an ``ExponentSet`` gives them from its line keys, so its
points become no Fractions.

The exponent pairs themselves, ``ExponentPair``, are defined in ``exponents``
(which needs no numpy) and imported here, so
``addspec.additive_space.ExponentPair`` names the same class.  The records
here are ``exact.Frozen`` values with hand-written constructors, and numpy
is imported inside the functions that compute with it, so importing this
module loads neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .errors import MalformedInputError
from .exact import Frozen
from .exponents import ExponentPair, ExponentSet
from .measures import IntervalUnionMeasure, as_fraction, exact_grid, fourier_transform, unit_phase


class AdditiveSpace(Frozen):
    """Pair of component measures placed on the x and y axes."""

    __slots__ = ("mu", "nu")
    _fields = ("mu", "nu")

    def __init__(self, mu: IntervalUnionMeasure, nu: IntervalUnionMeasure):
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)


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


class FiniteCombination(Frozen):
    """Finite linear combination of exponentials; pairs are distinct."""

    __slots__ = ("terms",)
    _fields = ("terms",)

    def __init__(self, terms: Tuple[Tuple[ExponentPair, complex], ...]):
        terms = tuple((p, complex(c)) for p, c in terms)
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
    return 0.5 * fourier_transform(s.mu, p.a - q.a) + 0.5 * fourier_transform(s.nu, p.b - q.b)


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


class PiecewisePolynomial(Frozen):
    """Polynomial pieces (left, right, coeffs) in the global coordinate.

    Coefficients are low-to-high degree.  The function is zero outside its
    pieces, which lets a function supported on part of a measure's support
    (such as a rescaled window) integrate correctly.
    """

    __slots__ = ("pieces",)
    _fields = ("pieces",)

    def __init__(self, pieces: Tuple[Tuple[Fraction, Fraction, Tuple[complex, ...]], ...]):
        norm = tuple(
            (as_fraction(l), as_fraction(r), tuple(complex(c) for c in coeffs))
            for l, r, coeffs in pieces
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
    # unused: perfbench/tracing.py reads its cache_info() to count quadrature rules
    import numpy as np

    return np.polynomial.legendre.leggauss(n)


def _moment_series(omega, degree: int):
    """J_k(omega) for k = 0..degree by the power series of e^{i omega t}.

    J_k = sum_m (i omega)^m / m! * s_{k+m}, where s_j = 2/(j+1) for even j and
    0 for odd j is the moment of t^j on [-1, 1].  The sum stops once m exceeds
    r = max |omega| and r^m / m! is below 1e-18; at omega = 0 that is after
    the term m = 0, so J_k is exactly s_k there.
    """
    import numpy as np

    r = float(np.max(np.abs(omega)))
    z = 1j * omega
    out = np.zeros((degree + 1,) + omega.shape, dtype=complex)
    term = np.ones(omega.shape, dtype=complex)
    bound, m = 1.0, 0
    while True:
        for k in range(degree + 1):
            if (k + m) % 2 == 0:
                out[k] += term * (2.0 / (k + m + 1))
        m += 1
        bound *= r / m
        if m > r and bound < 1e-18:
            return out
        term = term * z / m


def _moments(omega, e_pos, degree: int):
    """Rows J_k(omega) = integral over [-1, 1] of t^k e^{i omega t} dt, k = 0..degree.

    ``e_pos`` is e^{i omega}, computed by the caller from an exactly reduced
    phase.  J_k comes from the upward recurrence
        J_k = (e^{i omega} - (-1)^k e^{-i omega} - k J_{k-1}) / (i omega)
    where |omega| >= k + 1, which damps every earlier error by k/|omega| < 1,
    and from the power series elsewhere.
    """
    import numpy as np

    J = np.empty((degree + 1,) + omega.shape, dtype=complex)
    size = np.abs(omega)
    low = size < degree + 1
    if low.any():
        J[:, low] = _moment_series(omega[low], degree)
    e_neg = e_pos.conj()
    for k in range(degree + 1):
        up = size >= k + 1
        if up.any():
            rest = k * J[k - 1, up] if k else 0.0
            J[k, up] = (e_pos[up] - (-1) ** k * e_neg[up] - rest) / (1j * omega[up])
    return J


def _shifted(coeffs, mid: float, half: float):
    """Coefficients of t -> p(mid + half t), low-to-high, by Horner's rule on polynomials."""
    import numpy as np

    out = np.zeros(len(coeffs), dtype=complex)
    out[0] = coeffs[-1]
    for j, c in enumerate(reversed(coeffs[:-1])):
        out[1 : j + 2] = mid * out[1 : j + 2] + half * out[: j + 1]
        out[0] = mid * out[0] + c
    return out


def measure_integral(
    m: IntervalUnionMeasure, fn: PiecewisePolynomial, freq=0.0, denominator: Optional[int] = None
):
    """Exact-moment evaluation of  integral of fn(x) e^{2 pi i f x} dm(x).

    ``freq`` is a scalar (a complex is returned) or an array or list of
    frequencies (an array of the same shape is returned); ints, Fractions,
    "p/q" strings and floats are taken at their exact value, as integer
    numerators over one denominator D (``measures.exact_grid``).  With
    ``denominator``, ``freq`` is such a grid already, an integer array of
    numerators over D = ``denominator``, and is taken as it is.

    On each overlap [lo, hi] of a measure piece and a function piece,
    x = mid + half t turns the integral into
        dens * half * e^{2 pi i f mid} * sum_k q_k J_k(2 pi f half),
    with q the coefficients of the shifted polynomial and J_k the moments of
    ``_moments``.  The phases f mid and f half are reduced mod 1 exactly from
    the integer numerators and the rational endpoints, so the result stays a
    few ulps from exact however large f or the offset of the support.
    """
    import numpy as np

    if denominator is None:
        # an object array keeps every entry as given, where numpy would round
        # a list mixing negatives and ints past 2^63 to float64
        freqs = np.asarray(freq, dtype=object)
        nums, D = exact_grid(freqs.ravel().tolist())
    else:
        freqs = np.asarray(freq)
        nums, D = freqs.ravel(), denominator
    # true division rounds correctly for Python ints of any size
    f = np.array([x / D for x in nums.tolist()], dtype=float)
    total = np.zeros(f.shape, dtype=complex)
    for ml, mr, w in m.pieces:
        for fl, fr, coeffs in fn.pieces:
            lo, hi = max(ml, fl), min(mr, fr)
            if not lo < hi:
                continue
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            omega = (2 * np.pi * float(half)) * f
            e_pos = unit_phase(nums, half / D)
            J = _moments(omega, e_pos, len(coeffs) - 1)
            q = _shifted(coeffs, float(mid), float(half))
            scale = float(w * half / (mr - ml))
            total += scale * unit_phase(nums, mid / D) * (q @ J)
    return complex(total[0]) if freqs.ndim == 0 else total.reshape(freqs.shape)


def measure_norm_sq(m: IntervalUnionMeasure, fn: PiecewisePolynomial) -> float:
    """Integral of |fn|^2 dm: the moments at frequency 0 of each squared piece."""
    import numpy as np

    sq = PiecewisePolynomial(
        tuple(
            (l, r, tuple(np.convolve(coeffs, np.conj(coeffs))))
            for l, r, coeffs in fn.pieces
        )
    )
    return measure_integral(m, sq, 0).real


def frame_coefficients(
    s: AdditiveSpace,
    fn_pair: Tuple[PiecewisePolynomial, PiecewisePolynomial],
    points,
) -> np.ndarray:
    """<F, e_{a,b}> in L^2(rho) for each point (a, b) of ``points``, F given
    by its axis projections (f, g).

    ``points`` is an ``ExponentSet``, whose axes' integer grids are read
    from its line keys (``exact_grid`` of ``axis_keys``), so no Fraction or
    pair is built per point, or a sequence of pairs.
    """
    if isinstance(points, ExponentSet):
        x, y = exact_grid(*points.axis_keys("x")), exact_grid(*points.axis_keys("y"))
    else:
        pairs = tuple(points)
        x, y = exact_grid([p.a for p in pairs]), exact_grid([p.b for p in pairs])
    return grid_coefficients(s, fn_pair, x, y)


def grid_coefficients(
    s: AdditiveSpace,
    fn_pair: Tuple[PiecewisePolynomial, PiecewisePolynomial],
    x: Tuple[np.ndarray, int],
    y: Tuple[np.ndarray, int],
) -> np.ndarray:
    """<F, e_{a,b}> for the points whose coordinates are given as integer
    grids ``x`` and ``y``, each (numerators, D) as ``exact_grid`` makes
    them: the integrals of f and g at the numerators negated as integers."""
    (a, D_a), (b, D_b) = x, y
    f, g = fn_pair
    return 0.5 * measure_integral(s.mu, f, -a, D_a) + 0.5 * measure_integral(s.nu, g, -b, D_b)


def pair_norm_sq(
    s: AdditiveSpace, fn_pair: Tuple[PiecewisePolynomial, PiecewisePolynomial]
) -> float:
    f, g = fn_pair
    return 0.5 * measure_norm_sq(s.mu, f) + 0.5 * measure_norm_sq(s.nu, g)
