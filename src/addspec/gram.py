"""Finite-section certificates: Gram matrices, eigenvalue bounds, residuals.

A finite section can disprove but not prove: a section whose smallest
eigenvalue is (numerically) zero exhibits an explicit null combination, which
rules out a Riesz sequence outright.  When the section contains a zigzag
loop, that combination is the exact +-1/sqrt(k) alternation over the loop's
k points, which is null for every pair of component measures and can be
checked by hand; only a loop-free degenerate section takes its combination
from a dense eigenvector.  A positive, stabilizing floor across nested
sections is evidence only, and the verdict labels say so.

numpy is imported inside the functions that compute with it, so importing
this module loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .additive_space import (
    AdditiveSpace,
    ExponentPair,
    FiniteCombination,
    PiecewisePolynomial,
    combination_norm_sq,
    exp_inner,  # unused here; perfbench/tracing.py counts calls through addspec.gram.exp_inner
    frame_coefficients,
    integer_grid,
    pair_norm_sq,
    plus_space,
    support_intervals,
    unit_turns,
)
from . import additive_space
from .errors import MalformedInputError
from .exponents import ExponentSet, ZigzagPath, find_zigzag_loop
from .measures import IntervalUnionMeasure, as_fraction

MATRIX_CAP = 4096

DEGENERATE_TOL = 1e-9
STABILITY_FLOOR = 1e-6
STABILITY_RTOL = 0.1


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of exponential inner products for an ordered pair list."""

    pairs: Tuple[ExponentPair, ...]
    entries: np.ndarray

    @property
    def size(self) -> int:
        return len(self.pairs)


# Gram rows filled per block, so the kernel's temporaries stay ROW_BLOCK x n
ROW_BLOCK = 32


def _axis_kernel(m: IntervalUnionMeasure, coords: Sequence[Fraction]):
    """Exact grid of one axis and the per-piece factors of ft(m, c_i - c_j).

    The coordinates become integer numerators over their common denominator
    D: an int64 array, or Python ints in an object array once a numerator or
    D reaches 2^62, so that differences never wrap.  Each piece (l, r, w)
    contributes  w * u_i * conj(u_j) * sinc((num_i - num_j) / D * (r - l)),
    where the unit phase u_i = exp(2 pi i c_i (l + r)/2) has c_i (l + r)/2
    reduced mod 1 in exact arithmetic (``unit_turns``) before it is rounded.
    """
    import numpy as np

    nums, D = integer_grid(coords)
    top = max(abs(x) for x in nums)
    if 2 * top > D * int(np.finfo(float).max):
        raise MalformedInputError("exponent coordinates exceed the float range")
    grid = np.array(nums, dtype=np.int64 if max(top, D) < 2**62 else object)
    pieces = []
    for l, r, w in m.pieces:
        # c_i (l + r) / 2 = num_i * h, reduced mod 1
        turns = unit_turns(nums, (l + r) / (2 * D))
        pieces.append((0.5 * float(w), np.exp(2j * np.pi * turns), float(r - l)))
    return grid, D, pieces


def _half_transform_block(axis, rows: slice, cols: slice) -> np.ndarray:
    """ft(m, c_i - c_j) / 2 for i in rows, j in cols; exactly 1/2 where c_i == c_j."""
    import numpy as np

    grid, D, pieces = axis
    diff = grid[rows, None] - grid[None, cols]
    # true division rounds correctly for Python ints of any size
    x = np.asarray(diff / D, dtype=float)
    out = np.zeros(diff.shape, dtype=complex)
    for half_w, u, width in pieces:
        term = np.multiply.outer(u[rows], u[cols].conj())
        term *= np.sinc(x * width)
        term *= half_w
        out += term
    out[diff == 0] = 0.5
    return out


def assemble(s: AdditiveSpace, pairs: Sequence[ExponentPair]) -> GramMatrix:
    """Gram matrix  ft(mu, a_p - a_q)/2 + ft(nu, b_p - b_q)/2  of a pair list.

    One numpy kernel per axis (``_axis_kernel``): per-point phases reduced
    exactly, exact integer coordinate differences, ``np.sinc`` per piece.
    An axis on which two points agree contributes exactly ft(m, 0)/2 = 1/2,
    so the diagonal is exactly 1.  The upper triangle is filled ROW_BLOCK
    rows at a time and mirrored by conjugation, so the matrix is exactly
    Hermitian.  Entries stay a few ulps from exact however far the points
    and the supports sit from 0.  Duplicates are found on the exact integer
    grids, so no Fraction is hashed.
    """
    import numpy as np

    pairs = tuple(pairs)
    n = len(pairs)
    if n == 0:
        raise MalformedInputError("empty pair list")
    if n > MATRIX_CAP:
        raise MalformedInputError(f"section size {n} exceeds cap {MATRIX_CAP}")
    axes = (
        _axis_kernel(s.mu, [p.a for p in pairs]),
        _axis_kernel(s.nu, [p.b for p in pairs]),
    )
    if len(set(zip(axes[0][0].tolist(), axes[1][0].tolist()))) != n:
        raise MalformedInputError("duplicate pairs in Gram assembly")
    g = np.empty((n, n), dtype=complex)
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        rows, cols = slice(start, stop), slice(start, n)
        upper = g[rows, cols]
        half_mu, half_nu = (_half_transform_block(axis, rows, cols) for axis in axes)
        np.add(half_mu, half_nu, out=upper)
        g[stop:, rows] = upper[:, stop - start :].conj().T
        square = g[rows, rows]
        square[...] = np.triu(square) + np.triu(square, 1).conj().T
    g.flags.writeable = False
    return GramMatrix(pairs, g)


def identity_deviation(g: GramMatrix) -> float:
    """Largest |G - I| entry, taken ROW_BLOCK rows at a time so that no n x n
    temporary is formed; the result is the same float as the whole-matrix
    maximum, NaN included."""
    import numpy as np

    e = g.entries
    peaks = []
    for start in range(0, g.size, ROW_BLOCK):
        block = np.abs(e[start:start + ROW_BLOCK])
        d = np.arange(len(block))
        block[d, start + d] = np.abs(e[start + d, start + d] - 1)
        peaks.append(block.max())
    return float(np.max(peaks))


def extremal_eigenvalues(g: GramMatrix) -> Tuple[float, float]:
    """Smallest and largest eigenvalue of the Hermitian section."""
    import numpy as np

    if g.size == 0:
        raise MalformedInputError("empty Gram matrix")
    w = np.linalg.eigvalsh(g.entries)
    return float(w[0]), float(w[-1])


@dataclass(frozen=True)
class SectionCertificate:
    """Eigenvalue record over nested Gram sections with a scoped verdict.

    degenerate       -- some section has a (numerically) zero eigenvalue; the
                        null combination attached is a disproof: the exact
                        loop alternation when the first such section has a
                        zigzag loop, its unit eigenvector otherwise.
    riesz-consistent -- the smallest eigenvalue stabilized above a positive
                        floor; necessary-condition evidence, not a proof.
    indeterminate    -- still drifting at the largest section.
    """

    sizes: Tuple[int, ...]
    lambda_min: Tuple[float, ...]
    lambda_max: Tuple[float, ...]
    verdict: str
    floor: float
    null_combination: Optional[FiniteCombination] = None
    # the assembled matrix of the largest section, for checks that reuse it;
    # not part of the report body, equality or repr
    gram: Optional[GramMatrix] = field(default=None, compare=False, repr=False)

    def to_body(self) -> dict:
        body = {
            "sizes": list(self.sizes),
            "lambda_min": list(self.lambda_min),
            "lambda_max": list(self.lambda_max),
            "verdict": self.verdict,
            "floor": self.floor,
        }
        if self.null_combination is not None:
            body["null_combination"] = [
                {"a": str(p.a), "b": str(p.b), "re": c.real, "im": c.imag}
                for p, c in self.null_combination.terms
            ]
        return body


def riesz_section_certificate(
    s: AdditiveSpace,
    pairs: Sequence[ExponentPair],
    sizes: Sequence[int],
) -> SectionCertificate:
    """Eigenvalue certificate over nested prefixes of ``pairs``.

    Sections are leading principal submatrices of one assembled Gram matrix,
    so they are nested and the extremal eigenvalues interlace.  The first
    section whose smallest eigenvalue falls below DEGENERATE_TOL supplies the
    null combination.  If its prefix contains a zigzag loop (the integer
    union-find search of ``find_zigzag_loop``), the combination is the
    loop's exact alternation and no eigenvector is computed; a loop-free
    degenerate prefix, such as a near-duplicate pair of points, takes the
    unit eigenvector of its smallest eigenvalue from ``np.linalg.eigh``.
    """
    import numpy as np

    pairs = tuple(pairs)
    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n <= 0 or n > len(pairs) for n in sizes):
        raise MalformedInputError("section sizes must be in 1..len(pairs)")
    if list(sizes) != sorted(sizes):
        raise MalformedInputError("section sizes must be ascending")
    full = assemble(s, pairs[: sizes[-1]])
    mins: List[float] = []
    maxs: List[float] = []
    null_comb = None
    for n in sizes:
        w = np.linalg.eigvalsh(full.entries[:n, :n])
        mins.append(float(w[0]))
        maxs.append(float(w[-1]))
        if null_comb is None and w[0] < DEGENERATE_TOL:
            loop = find_zigzag_loop(ExponentSet(pairs[:n]))
            if loop is not None:
                null_comb = loop_alternation(loop)
            else:
                _, vecs = np.linalg.eigh(full.entries[:n, :n])
                v = vecs[:, 0]
                null_comb = FiniteCombination(
                    tuple((pairs[i], complex(v[i])) for i in range(n))
                )
    floor = min(mins)
    if null_comb is not None:
        verdict = "degenerate"
    elif mins[-1] >= STABILITY_FLOOR and (
        len(mins) >= 2 and mins[-2] - mins[-1] <= STABILITY_RTOL * mins[-2]
    ):
        verdict = "riesz-consistent"
    else:
        verdict = "indeterminate"
    return SectionCertificate(
        sizes=sizes,
        lambda_min=tuple(mins),
        lambda_max=tuple(maxs),
        verdict=verdict,
        floor=floor,
        null_combination=null_comb,
        gram=full,
    )


def parseval_residual(
    s: AdditiveSpace,
    pairs: Sequence[ExponentPair],
    test_fn: Tuple[PiecewisePolynomial, PiecewisePolynomial],
) -> float:
    """||F||^2 - sum over pairs of |<F, e_{a,b}>|^2 for F = (f, g) on the axes.

    For an orthonormal truncation this is the (non-negative) tail energy; for
    a non-orthonormal system it can take either sign.
    """
    import numpy as np

    coeffs = frame_coefficients(s, test_fn, tuple(pairs))
    return pair_norm_sq(s, test_fn) - float(np.sum(np.abs(coeffs) ** 2))


def loop_alternation(loop: ZigzagPath) -> FiniteCombination:
    """Unit-norm +1/sqrt(k), -1/sqrt(k), ... over a loop's k distinct points.

    Every point shares its vertical line with one loop neighbour and its
    horizontal line with the other, both of opposite sign, so on every line
    the coefficients cancel in pairs and the combination projects to exactly
    0: its norm in L^2(rho) is 0 whatever the component measures.
    """
    verts = loop.vertices[:-1]
    c = 1 / math.sqrt(len(verts))
    return FiniteCombination(
        tuple((p, complex(c if i % 2 == 0 else -c)) for i, p in enumerate(verts))
    )


def alternating_zigzag_norm(s: AdditiveSpace, z: ZigzagPath) -> float:
    """Squared norm of the +1,-1,... combination along a zigzag.

    Interior cancellation leaves at most one unit exponential per axis, so the
    value never exceeds 2; on a loop it is exactly 0.
    """
    verts = z.vertices[:-1] if z.is_loop else z.vertices
    coeffs = {}
    for i, p in enumerate(verts):
        coeffs[p] = coeffs.get(p, 0j) + (1.0 if i % 2 == 0 else -1.0)
    comb = FiniteCombination(tuple(coeffs.items()))
    return combination_norm_sq(s, comb)


# ---------------------------------------------------------------------------
# Test-function family: constants, low monomials, seeded piecewise-linear.
# ---------------------------------------------------------------------------


def constant_pair(s: AdditiveSpace, value=1.0):
    return (
        PiecewisePolynomial.constant(support_intervals(s.mu), value),
        PiecewisePolynomial.constant(support_intervals(s.nu), value),
    )


def monomial_pair(s: AdditiveSpace, degree_x: int, degree_y: int):
    return (
        PiecewisePolynomial.monomial(support_intervals(s.mu), degree_x),
        PiecewisePolynomial.monomial(support_intervals(s.nu), degree_y),
    )


def random_piecewise_linear(
    intervals, rng: np.random.Generator, splits: int = 1
) -> PiecewisePolynomial:
    """Random continuous-by-parts linear function on the given intervals."""
    pieces = []
    for l, r in intervals:
        l = as_fraction(l)
        r = as_fraction(r)
        cuts = [l] + [
            l + (r - l) * Fraction(k, splits + 1) for k in range(1, splits + 1)
        ] + [r]
        for lo, hi in zip(cuts, cuts[1:]):
            c0, c1 = rng.uniform(-1.0, 1.0, size=2)
            pieces.append((lo, hi, (complex(c0), complex(c1))))
    return PiecewisePolynomial(tuple(pieces))


# ---------------------------------------------------------------------------
# Collinear spectra cannot frame the symmetric origin-centered space.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollinearFailureReport:
    slope: Fraction
    n_points: int
    frame_sum: float
    energy: float
    ratio: float


def collinear_failure_demo(a, N: int, g=None, seed: int = 0) -> CollinearFailureReport:
    """Exhibit the lower-frame-bound failure of a line spectrum {(n, a*n)}.

    On the space with both components uniform on [-1/2, 1/2], rescale g onto
    [-a/2, a/2] as gt(x) = g(x/a)/a and take f = -gt: every frame coefficient
    of F = (f, g) vanishes identically, so the ratio (frame sum)/||F||^2 is 0
    no matter how many line points are used.

    ``g`` is a PiecewisePolynomial on [-1/2, 1/2], the string "random" for a
    seeded piecewise-linear draw, or None for the constant 1.
    """
    import numpy as np

    a = as_fraction(a)
    if not (0 < a <= 1):
        raise MalformedInputError(f"slope must be in (0, 1], got {a}")
    N = int(N)
    if N < 0:
        raise MalformedInputError(f"N must be non-negative, got {N}")
    s = plus_space()
    if g is None:
        g = PiecewisePolynomial.constant(support_intervals(s.nu), 1.0)
    elif isinstance(g, str):
        if g != "random":
            raise MalformedInputError(f"unknown test function {g!r}")
        rng = np.random.default_rng(seed)
        g = random_piecewise_linear(support_intervals(s.nu), rng, splits=2)
    g_rescaled = PiecewisePolynomial(
        tuple(
            (
                a * l,
                a * r,
                tuple(c / float(a) ** (k + 1) for k, c in enumerate(coeffs)),
            )
            for l, r, coeffs in g.pieces
        )
    )
    f = g_rescaled.negated()
    # <F, e_{n, a n}> for n = -N..N: the frequencies -n and -n p/q of the line
    # points as integer numerators.  The module attribute is called, so that
    # perfbench/tracing.py counts these integrals with the others.
    neg = range(N, -N - 1, -1)
    integral = additive_space.measure_integral
    coeffs = 0.5 * integral(s.mu, f, list(neg)) + 0.5 * integral(
        s.nu, g, [n * a.numerator for n in neg], denominator=a.denominator
    )
    frame_sum = float(np.sum(np.abs(coeffs) ** 2))
    energy = pair_norm_sq(s, (f, g))
    if energy <= 0:
        raise MalformedInputError("test function is numerically zero")
    return CollinearFailureReport(
        slope=a,
        n_points=len(neg),
        frame_sum=frame_sum,
        energy=energy,
        ratio=frame_sum / energy,
    )
