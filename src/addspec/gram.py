"""Finite-section certificates: Gram matrices, eigenvalue bounds, residuals.

A finite section can disprove but not prove: a section whose smallest
eigenvalue is (numerically) zero exhibits an explicit null combination, which
rules out a Riesz sequence outright.  When the section contains a zigzag
loop, that combination is the exact +-1/sqrt(k) alternation over the loop's
k points, which is null for every pair of component measures and can be
checked by hand; only a loop-free degenerate section takes its combination
from a dense eigenvector.  A positive, stabilizing floor across nested
sections is evidence only, and the verdict labels say so.

The eigen step runs on a real symmetric matrix when the section allows it.
Every preset component is one interval of unit width, so ft(m, d) is exactly
0 at every nonzero integer d.  On a set whose coordinates are congruent mod 1
on each axis (integer lattices, lev sets, staircases), G is therefore
exactly 1/2 [same x line] + 1/2 [same y line], that is 1/2 B^T B for the
line-point incidence matrix B of the zigzag graph: ``assemble`` fills it from
the set's line ids, real and exactly in {0, 1/2, 1}, with no transform.
The test is exact, per axis, on the integer grids of the assembly.
Otherwise the interval, symmetric about its centre c, makes ft(m, lam)
e^{2 pi i lam c} times a real number; when 2 (b c_y - a c_x) mod 1 is the
same for every point (a, b), as on the L ONB and mirror spectra, the phases
u = e^{2 pi i a c_x} make conj(u_p) G_pq u_q real, with exactly the
eigenvalues of G.  That test is exact too and comes first: ``assemble`` then
builds that real symmetric matrix in place of G, one float64 n x n array.
Other sections, such as a doubled non-overlap spectrum, stay complex
Hermitian.

Sections are taken of an ``ExponentSet``, which has rejected duplicate
points already.  Each axis's integer grid is read from the set's line keys
(``ExponentSet.axis_keys`` through ``measures.exact_grid``), and the loop of
a degenerate prefix from the set's incidence forest, so a point file's
coordinates become neither Fractions nor ``ExponentPair`` objects unless a
report prints them.  The frame coefficients of a Parseval residual read the
same grids, and the collinear demo hands the quadrature the integer
numerators of its line, n over 1 and p n over q.

Either way, a section that splits into two exactly orthonormal halves takes
a half-size step: the matrix is [[I, C], [C^H, I]] after ordering, and its
extremal eigenvalues are 1 -+ sigma_max(C).  The split is decided on the
exact zeros of the matrix itself (``_halves``); it covers doubled
non-overlap spectra on an integer base, lev sets with two points per line,
and orthonormal sets, whose eigenvalues are then exactly 1.

The records are ``exact.Frozen`` values with hand-written constructors, and
numpy is imported inside the functions that compute with it, so importing
this module loads neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .additive_space import (
    AdditiveSpace,
    FiniteCombination,
    PiecewisePolynomial,
    exp_inner,  # unused here; perfbench/tracing.py counts calls through addspec.gram.exp_inner
    frame_coefficients,
    grid_coefficients,
    pair_norm_sq,
    plus_space,
    support_intervals,
)
from .errors import MalformedInputError
from .exact import Frozen
from .exponents import ExponentSet, ZigzagPath, find_zigzag_loop
from .measures import INT64_SAFE, IntervalUnionMeasure, as_fraction, exact_grid, residues
from .measures import transform_rows, unit_phase

MATRIX_CAP = 4096

DEGENERATE_TOL = 1e-9
STABILITY_FLOOR = 1e-6
STABILITY_RTOL = 0.1


# Gram rows filled per block, so the kernel's temporaries stay ROW_BLOCK x n
ROW_BLOCK = 32


class GramMatrix(Frozen):
    """Hermitian matrix of exponential inner products of an ordered point set.

    ``points`` is the ``ExponentSet`` of its rows, in order, with its line
    ids: row p is the p-th point.

    ``entries`` is the matrix the eigen step factorizes.  On a set whose
    axes both take line-id rows (``_half_rows``), as integer sets do, it is
    G itself, float64 and exactly in {0, 1/2, 1}, and ``phases`` is None.
    Otherwise ``phases`` is a unit vector u, set by ``assemble`` when the
    exact test of ``_aligned_phases`` shows that  conj(u_p) G_pq u_q  is
    real: a diagonal unitary similarity, so that real symmetric matrix has
    the eigenvalues of G.  ``entries`` is then that float64 matrix, not G,
    and an eigenvector v of it is u * v for G; without phases ``entries`` is
    G itself, complex.

    It holds a matrix, not a value: ``==`` and ``hash`` go by identity.
    ``phases`` stays out of the repr, and pickles keep it.
    """

    __slots__ = ("points", "entries", "phases")
    _fields = ("points", "entries")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: ExponentSet, entries: np.ndarray,
                 phases: Optional[np.ndarray] = None):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "phases", phases)

    def __reduce__(self):
        return type(self), (self.points, self.entries, self.phases)

    @property
    def size(self) -> int:
        return len(self.points)


def _half_rows(m: IntervalUnionMeasure, es: ExponentSet, axis: str):
    """One axis: ``(grid, D, rows, by_lines)``, the ``exact_grid`` of its
    coordinates and its denominator D, read from the set's line keys,
    ``rows(rows, cols, out)`` writing ft(m, c_i - c_j)/2, and whether those
    rows come from the line ids.  Rows come in one of three modes:

    - line ids: m is one piece of width w and ``residues(grid, w / D)`` is
      one value for every point, as on integer coordinates and unit pieces.
      Every coordinate difference d is then a multiple of 1/w, so
      ft(m, d) = [d == 0] exactly, and the rows are 0.5 where the points'
      line ids agree and 0 elsewhere: real, with no transform.
    - span table: a span small next to n^2 gets a table of
      ``transform_rows`` over it against 0, extended by ft(-d) = conj ft(d),
      so its rows are exactly Hermitian.
    - direct: otherwise (a huge gap, say) the rows are ``transform_rows`` on
      the grid itself, its phases and residues reduced once per point, so a
      pair needs no Python int.
    """
    import numpy as np

    keys, ids = es.axis_keys(axis)
    ids = np.asarray(ids, dtype=np.intp)
    grid, D = exact_grid(keys, ids)
    if len(m.pieces) == 1:
        l, r, _ = m.pieces[0]
        k = residues(grid, (r - l) / D)
        if np.all(k == k[0]):
            return grid, D, lambda sl, cols, out: np.multiply(
                ids[sl, None] == ids[cols], 0.5, out=out
            ), True
    low = grid.min()
    span = int(grid.max() - low)
    if 2 * span + 1 <= len(grid) ** 2 / 4:
        at_zero = transform_rows(m, np.arange(span + 1), D, 0.5)
        half = at_zero(slice(None), slice(0, 1), np.empty((span + 1, 1), dtype=complex))[:, 0]
        table = np.concatenate((half[:0:-1].conj(), half))
        at = np.asarray(grid - low, dtype=np.int64)
        return grid, D, lambda sl, cols, out: np.take(
            table, at[sl, None] - (at[cols] - span), out=out, mode="clip"
        ), False
    return grid, D, transform_rows(m, grid, D, 0.5), False


def _axes(s: AdditiveSpace, es: ExponentSet):
    """``_half_rows`` of both axes."""
    return _half_rows(s.mu, es, "x"), _half_rows(s.nu, es, "y")


def _as_set(points) -> ExponentSet:
    """``points`` as an ``ExponentSet``: itself if it is one, else the set
    of a pair sequence, which rejects duplicate points."""
    return points if isinstance(points, ExponentSet) else ExponentSet(points)


def _row_blocks(x, y, upper=False):
    """Yield (rows, block), ROW_BLOCK Gram rows at a time, each block in its
    own buffer: whole rows, or (upper) the rows from the diagonal on, for
    the caller to mirror.  Blocks are float64 when both axes take line-id
    rows, else complex."""
    import numpy as np

    (grid, _, x_rows, x_lines), (_, _, y_rows, y_lines) = x, y
    n = len(grid)
    buf = np.empty((2, ROW_BLOCK * n), dtype=float if x_lines and y_lines else complex)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        cols = slice(start if upper else 0, n)
        shape = (rows.stop - start, n - cols.start)
        x_out, y_out = buf[:, : shape[0] * shape[1]].reshape((2,) + shape)
        block = x_rows(rows, cols, x_out)
        block += y_rows(rows, cols, y_out)
        yield rows, block


def _centre(m: IntervalUnionMeasure) -> Optional[Fraction]:
    """The centre c of a measure symmetric about it (pieces mirrored about c
    with equal weights), else None; then ft(m, lam) is e^{2 pi i lam c}
    times a real number."""
    c2 = m.pieces[0][0] + m.pieces[-1][1]
    mirrored = tuple((c2 - r, c2 - l, w) for l, r, w in reversed(m.pieces))
    return c2 / 2 if mirrored == m.pieces else None


def _aligned_phases(s: AdditiveSpace, x, y):
    """u_p = e^{2 pi i a_p c_x} if  conj(u_p) G_pq u_q  is real, else None.

    With both measures symmetric about their centres, that entry is
    ft_x/2 + e^{2 pi i (phi_p - phi_q)} ft_y/2 with real ft's and
    phi_p = b_p c_y - a_p c_x, so it is real for every pair exactly when
    2 phi_p mod 1 is the same for every point.  That is decided in integers
    on the axes' exact grids: 2 a_p c_x mod 1 is k_x / (4 q_x) for the quarter
    turns k_x of the numerator at h_x = 2 c_x / D_x, compared modulo 4L over
    L = lcm(q_x, q_y).  A doubled non-overlap spectrum fails it.
    """
    import numpy as np

    (grid_x, D_x, _, _), (grid_y, D_y, _, _) = x, y
    c_x, c_y = _centre(s.mu), _centre(s.nu)
    if c_x is None or c_y is None:
        return None
    h_x, h_y = 2 * c_x / D_x, 2 * c_y / D_y
    k_x, k_y = residues(grid_x, h_x), residues(grid_y, h_y)
    q_x, q_y = h_x.denominator, h_y.denominator
    L = math.lcm(q_x, q_y)
    if 4 * L >= INT64_SAFE:
        k_x, k_y = k_x.astype(object), k_y.astype(object)
    phi = (k_y * (L // q_y) - k_x * (L // q_x)) % (4 * L)
    return None if np.any(phi != phi[0]) else unit_phase(grid_x, c_x / D_x)


def assemble(s: AdditiveSpace, points) -> GramMatrix:
    """Gram matrix  ft(mu, a_p - a_q)/2 + ft(nu, b_p - b_q)/2  of an
    ``ExponentSet`` or a sequence of distinct pairs, which becomes one.

    Each axis takes its rows on the integer grid of the set's line keys
    (``_half_rows``).  When both axes take line-id rows, as on integer
    sets, the section is G itself, 1/2 [same x line] + 1/2 [same y line]:
    real, exactly in {0, 1/2, 1}, filled ROW_BLOCK whole rows at a time.
    Otherwise only the upper triangle is computed, turned by the phases
    into the real form Re(conj(u_p) u_q G_pq) of an aligned section
    (``_aligned_phases``), and mirrored below as its conjugate transpose,
    so the matrix is exactly Hermitian.  An axis on which two points agree
    adds exactly ft(m, 0)/2 = 1/2, so the diagonal is exactly 1; the real
    form's is set to 1, which |u_p|^2 may miss by an ulp.  Entries are a
    few ulps from exact however far the points or supports sit from 0.  The
    set rejects duplicate points, and the row modes and the alignment are
    decided on the exact grids.
    """
    import numpy as np

    es = _as_set(points)
    n = len(es)
    if n == 0:
        raise MalformedInputError("empty pair list")
    if n > MATRIX_CAP:
        raise MalformedInputError(f"section size {n} exceeds cap {MATRIX_CAP}")
    x, y = _axes(s, es)
    if x[3] and y[3]:
        g = np.empty((n, n))
        for rows, block in _row_blocks(x, y):
            g[rows] = block
        g.flags.writeable = False
        return GramMatrix(es, g)
    u = _aligned_phases(s, x, y)
    g = np.empty((n, n), dtype=complex if u is None else float)
    for rows, block in _row_blocks(x, y, upper=True):
        start, stop = rows.start, rows.stop
        if u is not None:
            block = (np.multiply.outer(u[rows].conj(), u[start:]) * block).real
        # the block is G[rows, start:], so its conjugate transpose is G[start:, rows]
        g[rows, start:] = block
        g[stop:, rows] = block[:, stop - start:].conj().T
        square = g[rows, rows]
        square[...] = np.triu(square) + np.triu(square, 1).conj().T
    if u is not None:
        np.fill_diagonal(g, 1.0)
    g.flags.writeable = False
    return GramMatrix(es, g, u)


def combination_norm_sq(s: AdditiveSpace, c: FiniteCombination) -> float:
    """Squared norm  sum of c_p conj(c_q) <e_p, e_q>, over the Gram matrix
    ROW_BLOCK rows at a time: no n x n matrix, so no MATRIX_CAP either."""
    import numpy as np

    v = np.array([coeff for _, coeff in c.terms])
    blocks = _row_blocks(*_axes(s, ExponentSet(p for p, _ in c.terms)))
    return float(sum(v[rows] @ (block @ v.conj()) for rows, block in blocks).real)


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


def _halves(e):
    """Sides (a bool per point) that split the matrix ``e`` into two
    orthonormal halves, or None.

    The split holds when the diagonal is exactly 1 and every exactly nonzero
    off-diagonal entry joins points of opposite sides: then, side False
    first, e is exactly [[I, C], [C^H, I]], and so is every leading section
    with the sides restricted to it.  A point joined to its first
    neighbour's first neighbour closes a triangle, which rejects the matrix
    at once, as on a dense section or on three lattice points of one line.
    Otherwise the sides 2-colour the graph that joins each point to its
    first and last neighbour, which is every join of a point with at most
    two; every entry is then checked, so a colouring that misses a split
    costs only the half-size step.
    """
    import numpy as np

    n = len(e)
    if not np.all(e.diagonal() == 1):
        return None
    joined = e != 0
    np.fill_diagonal(joined, False)
    first = joined.argmax(axis=1)
    src = np.flatnonzero(joined[np.arange(n), first])
    second = first[first[src]]
    if np.any(joined[src, second] & (second != src)):
        return None
    last = n - 1 - joined[:, ::-1].argmax(axis=1)
    side = _two_colouring(n, np.concatenate((src, src)), np.concatenate((first[src], last[src])))
    same = side[:, None] == side
    same &= joined
    return None if same.any() else side


def _two_colouring(n: int, src, dst):
    """Colours (bools) of n points that differ across each edge
    (src[k], dst[k]) wherever the graph allows it.

    A breadth-first search starts at each still-uncoloured point in index
    order, gives it False and every point it reaches the opposite of the
    point it was reached from.  So each component's smallest point is False,
    and on an odd cycle some edge keeps equal colours.
    """
    import numpy as np

    near = [[] for _ in range(n)]
    for p, q in zip(src.tolist(), dst.tolist()):
        near[p].append(q)
        near[q].append(p)
    side = [None] * n
    for start in range(n):
        if side[start] is None:
            side[start] = False
            queue = [start]
            for p in queue:
                for q in near[p]:
                    if side[q] is None:
                        side[q] = not side[p]
                        queue.append(q)
    return np.array(side, dtype=bool)


def _extremes(e, n: int, side) -> Tuple[float, float]:
    """Smallest and largest eigenvalue of e[:n, :n].

    With ``side`` from ``_halves`` they are exactly 1 -+ sigma_max(C): the
    eigenvalues of [[I, C], [C^H, I]] are 1 +- sigma_i(C), and 1 for each
    point one half has more than the other.  sigma_max^2 is the top
    eigenvalue of C C^H on the smaller half.  Otherwise, ``eigvalsh``.
    """
    import numpy as np

    if side is None:
        w = np.linalg.eigvalsh(e[:n, :n])
        return float(w[0]), float(w[-1])
    a, b = np.flatnonzero(~side[:n]), np.flatnonzero(side[:n])
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return 1.0, 1.0
    c = e[np.ix_(a, b)]
    sigma = math.sqrt(max(np.linalg.eigvalsh(c @ c.conj().T)[-1], 0.0))
    return 1 - sigma, 1 + sigma


def extremal_eigenvalues(g: GramMatrix) -> Tuple[float, float]:
    """Smallest and largest eigenvalue of the Hermitian section, taken
    from its ``entries`` by the eigen step of ``_extremes``."""
    if g.size == 0:
        raise MalformedInputError("empty Gram matrix")
    return _extremes(g.entries, g.size, _halves(g.entries))


class SectionCertificate(Frozen):
    """Eigenvalue record over nested Gram sections with a scoped verdict.

    degenerate       -- some section has a (numerically) zero eigenvalue; the
                        null combination attached is a disproof: the exact
                        loop alternation when the first such section has a
                        zigzag loop, otherwise the conjugate of the unit
                        eigenvector, whose squared norm is that eigenvalue.
    riesz-consistent -- the smallest eigenvalue stabilized above a positive
                        floor; necessary-condition evidence, not a proof.
    indeterminate    -- still drifting at the largest section.

    ``gram`` is the assembled matrix of the largest section, for checks that
    reuse it: not part of the report body, ``==``, ``hash`` or repr, though
    pickles keep it.
    """

    __slots__ = ("sizes", "lambda_min", "lambda_max", "verdict", "floor",
                 "null_combination", "gram")
    _fields = ("sizes", "lambda_min", "lambda_max", "verdict", "floor", "null_combination")

    def __init__(
        self,
        sizes: Tuple[int, ...],
        lambda_min: Tuple[float, ...],
        lambda_max: Tuple[float, ...],
        verdict: str,
        floor: float,
        null_combination: Optional[FiniteCombination] = None,
        gram: Optional[GramMatrix] = None,
    ):
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "lambda_min", lambda_min)
        object.__setattr__(self, "lambda_max", lambda_max)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "null_combination", null_combination)
        object.__setattr__(self, "gram", gram)

    def __reduce__(self):
        return type(self), self._values() + (self.gram,)

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
    points,
    sizes: Sequence[int],
) -> SectionCertificate:
    """Eigenvalue certificate over nested prefixes of ``points``, an
    ``ExponentSet`` or a sequence of distinct pairs, which becomes one.

    ``sizes`` must be strictly ascending: a repeated size would compare a
    section with itself and fake a stable floor.  Sections are leading
    principal submatrices of one Gram matrix, assembled on the set's prefix
    (``ExponentSet.prefix``), so they are nested and the extremal
    eigenvalues interlace.  The first section whose smallest eigenvalue
    falls below DEGENERATE_TOL supplies the null combination.  A prefix of
    n points contains a zigzag loop exactly when the set's incidence forest
    closes its first loop at a point before n, and that loop
    (``find_zigzag_loop``) lies in the prefix; its exact alternation is the
    combination and no eigenvector is computed.  A loop-free degenerate
    prefix, such as a near-duplicate pair of points, takes the conjugate of
    the unit eigenvector of its smallest eigenvalue from ``np.linalg.eigh``:
    the coefficients c with  ||sum c_p e_p||^2 = lambda.

    Every eigenvalue and eigenvector comes from the assembled ``entries``:
    G itself, real on a set whose axes both take line-id rows, the real
    symmetric form of a phase-aligned section, whose eigenvector v is
    ``phases * v`` for G, or the complex Hermitian G.
    The largest section is split into orthonormal halves once (``_halves``),
    when it can be, and every nested section takes the half-size step on the
    split restricted to it; otherwise each takes the dense ``eigvalsh``.
    """
    import numpy as np

    es = _as_set(points)
    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n <= 0 or n > len(es) for n in sizes):
        raise MalformedInputError("section sizes must be in 1..len(pairs)")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise MalformedInputError("section sizes must be ascending")
    full = assemble(s, es.prefix(sizes[-1]))
    e = full.entries
    side = _halves(e)
    mins: List[float] = []
    maxs: List[float] = []
    null_comb = None
    for n in sizes:
        low, high = _extremes(e, n, side)
        mins.append(low)
        maxs.append(high)
        if null_comb is None and low < DEGENERATE_TOL:
            closing = es._forest[1]
            if closing is not None and closing < n:
                null_comb = loop_alternation(find_zigzag_loop(es))
            else:
                _, vecs = np.linalg.eigh(e[:n, :n])
                # the squared norm of sum c_p e_p is c^T G conj(c), so the
                # coefficients are the conjugate of G's eigenvector u * v
                u = full.phases
                c = vecs[:, 0].conj() if u is None else u[:n].conj() * vecs[:, 0]
                null_comb = FiniteCombination(tuple(zip(es.points[:n], map(complex, c))))
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
    points,
    test_fn: Tuple[PiecewisePolynomial, PiecewisePolynomial],
) -> float:
    """||F||^2 - sum over points of |<F, e_{a,b}>|^2 for F = (f, g) on the axes.

    ``points`` is an ``ExponentSet``, whose frame coefficients are taken on
    its axes' integer grids (``frame_coefficients``), or a sequence of
    pairs.  For an orthonormal truncation this is the (non-negative) tail
    energy; for a non-orthonormal system it can take either sign.
    """
    import numpy as np

    coeffs = frame_coefficients(s, test_fn, points)
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
# Test-function family: monomials (degree 0 is 1), seeded piecewise-linear.
# ---------------------------------------------------------------------------


def monomial_pair(s: AdditiveSpace, degree_x: int, degree_y: int):
    return (
        PiecewisePolynomial.monomial(support_intervals(s.mu), degree_x),
        PiecewisePolynomial.monomial(support_intervals(s.nu), degree_y),
    )


def random_piecewise_linear(intervals, rng: np.random.Generator) -> PiecewisePolynomial:
    """Random linear function on each third of each of the given intervals."""
    pieces = []
    for l, r in intervals:
        l = as_fraction(l)
        r = as_fraction(r)
        cuts = [l + (r - l) * Fraction(k, 3) for k in range(4)]
        for lo, hi in zip(cuts, cuts[1:]):
            c0, c1 = rng.uniform(-1.0, 1.0, size=2)
            pieces.append((lo, hi, (complex(c0), complex(c1))))
    return PiecewisePolynomial(tuple(pieces))


# ---------------------------------------------------------------------------
# Collinear spectra cannot frame the symmetric origin-centered space.
# ---------------------------------------------------------------------------


class CollinearFailureReport(Frozen):
    __slots__ = ("slope", "n_points", "frame_sum", "energy", "ratio")
    _fields = ("slope", "n_points", "frame_sum", "energy", "ratio")

    def __init__(self, slope: Fraction, n_points: int, frame_sum: float, energy: float,
                 ratio: float):
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "frame_sum", frame_sum)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "ratio", ratio)


def collinear_failure_demo(a, N: int, g=None, seed: int = 0) -> CollinearFailureReport:
    """Exhibit the lower-frame-bound failure of a line spectrum {(n, a*n)}.

    On the space with both components uniform on [-1/2, 1/2], rescale g onto
    [-a/2, a/2] as gt(x) = g(x/a)/a and take f = -gt: every frame coefficient
    of F = (f, g) vanishes identically, so the ratio (frame sum)/||F||^2 is 0
    no matter how many line points are used.

    ``g`` is a PiecewisePolynomial on [-1/2, 1/2], the string "random" for a
    seeded piecewise-linear draw, or None for the constant 1.  A slope whose
    rescaled g or its norms leave the float range (from about 5e-78 down for
    a linear g) raises MalformedInputError.
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
        g = random_piecewise_linear(support_intervals(s.nu), rng)
    too_small = f"slope {a} is too small: the rescaled test function leaves the float range"
    if any(float(a) ** len(coeffs) == 0 for _, _, coeffs in g.pieces):
        raise MalformedInputError(too_small)
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
    # the line points (n, p n / q), n = -N..N, as numerators n over 1 and p n over q
    p, q = a.numerator, a.denominator
    x = exact_grid(range(-N, N + 1))
    y = exact_grid([p * n for n in range(-N, N + 1)])[0], q
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = grid_coefficients(s, (f, g), x, y)
        frame_sum = float(np.sum(np.abs(coeffs) ** 2))
        energy = pair_norm_sq(s, (f, g))
    if not (math.isfinite(frame_sum) and math.isfinite(energy)):
        raise MalformedInputError(too_small)
    if energy <= 0:
        raise MalformedInputError("test function is numerically zero")
    return CollinearFailureReport(
        slope=a,
        n_points=len(coeffs),
        frame_sum=frame_sum,
        energy=energy,
        ratio=frame_sum / energy,
    )
