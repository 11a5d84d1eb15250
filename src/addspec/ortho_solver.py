"""The orthogonality constraint for interval components, and its solution sets.

Two exponentials over components [t, t+1] and [t', t'+1] are orthogonal in
the additive space iff their frequency differences (l1, l2), both nonzero,
satisfy

    e^{pi i l1 (2t+1)} S(pi l1) + e^{pi i l2 (2t'+1)} S(pi l2) = 0,

with S(z) = sin(z)/z.  Closed-form solution families are hard-coded for the
solved parameter cases: the symmetric family t = t' with 2t+1 = 1/a for an
integer a >= 1, whose a = 1 member is the L shape t = t' = 0, and the T
shape t = -1/2, t' = -1.  Everything else degrades to residual scans, never
to fabricated families.

The residual |ft(U[t], l1) + ft(U[t'], l2)| is ``measures``' transform
kernel at exact points, so it reads exactly 0 on the families, and at a
lattice cell (two integer frequencies) of an unsolved scan box.  A residual
scan takes its box exactly, skips the cells on the axes and in closed balls
of radius 1/1000 about the family members, decided on integers, and
evaluates only the grid cells that can hold its minimum: a sampled unmasked
cell bounds the minimum, and |z| >= |Re z| puts every cell under that bound
in one searchable run of each grid row.  Exact ties go to the first cell in
grid order.
The records are ``exact.Frozen`` values with hand-written constructors, and
numpy is imported inside the functions that compute with it, so importing
this module loads neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import MalformedInputError, MultiplicityOneViolation, UnsolvedCaseError
from .exact import Frozen
from .exponents import lower_beurling_density
from .measures import INT64_SAFE, IntervalUnionMeasure, as_fraction, exact_grid
from .measures import fourier_transform, transform_rows

SCAN_ROOT_TOL = 1e-6
EXCLUSION_RADIUS = Fraction(1, 1000)
SCAN_SAMPLE = 64  # rows and columns of the subgrid that bounds the residual scan
SCAN_GROUP = 1 << 20  # most candidate cells the residual scan evaluates at once
CLASSIFY_POINTS = 10**6  # most candidate points a density estimate builds


def residual(t, t_prime, l1, l2) -> float:
    """|ft(U[t], l1) + ft(U[t'], l2)|, the constraint's |LHS + RHS|: 0 iff (l1, l2) solves it."""
    if l1 == 0 or l2 == 0:
        raise MultiplicityOneViolation("frequency differences must be nonzero")
    unit = IntervalUnionMeasure.unit_interval
    return abs(fourier_transform(unit(t), l1) + fourier_transform(unit(t_prime), l2))


class OrthSolutionFamily(Frozen):
    """Parametrized solutions (l1, l2) of the orthogonality constraint.

    Each coordinate is a nonzero offset + step n.  A sign-coupled family
    (antidiagonal) pairs l1 with l2 = -l1, the same n; the integer lattice
    pairs any two coordinates.
    """

    __slots__ = ("kind", "offset", "step", "sign_coupled")
    _fields = ("kind", "offset", "step", "sign_coupled")

    def __init__(self, kind: str, offset: Fraction = Fraction(0), step: Fraction = Fraction(1),
                 sign_coupled: bool = False):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "sign_coupled", sign_coupled)

    def members(self, count: int) -> Iterator[Tuple[Fraction, Fraction]]:
        """First ``count`` members in a deterministic near-origin-first order."""
        walk = self._lattice() if self.kind == "integer-lattice" else self._antidiagonal()
        return itertools.islice(walk, count)

    def _lattice(self) -> Iterator[Tuple[Fraction, Fraction]]:
        # ring by ring in the sup norm, each ring in (l1, l2) order
        for ring in itertools.count(1):
            for m in range(-ring, ring + 1):
                for n in range(-ring, ring + 1):
                    if m and n and ring in (abs(m), abs(n)):
                        yield Fraction(m), Fraction(n)

    def _antidiagonal(self) -> Iterator[Tuple[Fraction, Fraction]]:
        # l1 = offset + step * j at j = 0, 1, -1, 2, -2, ...
        yield self.offset, -self.offset
        for j in itertools.count(1):
            for l1 in (self.offset + self.step * j, self.offset - self.step * j):
                yield l1, -l1

    def near(self, x, den: int, axis: int):
        """(near, index) at each point x / den of axis 0 or 1, ``x`` integers: whether
        a member coordinate lies within EXCLUSION_RADIUS, and its n (0 if uncoupled).

        With x / den - offset = step N / M, the nearest member n = round(N / M)
        lies step |N - M n| / M away.  Every product below is at most 2 top,
        top = (max|x| oq + |op| den + den oq) sq + M, except the radius test's
        rq |N - M n| <= rq M / 2; ``x`` stays int64 while max(2 top, rq M) is
        below INT64_SAFE, and becomes Python ints past it.
        """
        import numpy as np

        (op, oq), (sp, sq) = self.offset.as_integer_ratio(), self.step.as_integer_ratio()
        rp, rq = EXCLUSION_RADIUS.as_integer_ratio()
        x = -x if axis and self.sign_coupled else x
        M = den * oq * sp
        top = (int(abs(x).max()) * oq + abs(op) * den + den * oq) * sq + M
        if x.dtype != object and max(2 * top, rq * M) >= INT64_SAFE:
            x = x.astype(object)
        N = (x * oq - op * den) * sq
        n = (2 * N + M) // (2 * M)
        near = (rq * abs(N - M * n) <= rp * sq * den * oq) & (op * sq + oq * sp * n != 0)
        return near, n if self.sign_coupled else np.zeros_like(n)


INTEGER_LATTICE = OrthSolutionFamily(kind="integer-lattice")


def classify_case(t, t_prime) -> Tuple:
    """("L",), ("symmetric", a), ("T",) or ("unsolved",) for the parameters.

    The symmetric cases are t = t' with 2t+1 = 1/a for an integer a >= 1,
    reported as ("L",) at a = 1 and as ("symmetric", a) above it.
    """
    t = as_fraction(t)
    tp = as_fraction(t_prime)
    w = 2 * t + 1
    if t == tp and w > 0 and w.numerator == 1:
        return ("L",) if w == 1 else ("symmetric", w.denominator)
    if t == Fraction(-1, 2) and tp == -1:
        return ("T",)
    return ("unsolved",)


def _symmetric_a(case: Tuple) -> Optional[int]:
    """a of a symmetric solved case (1 for L); None for T and unsolved."""
    if case[0] == "L":
        return 1
    return case[1] if case[0] == "symmetric" else None


def solve_families(t, t_prime) -> List[OrthSolutionFamily]:
    """Closed-form families for the solved cases; empty list when unsolved.

    Every solved case has the integer lattice; an odd symmetric a adds the
    antidiagonal l1 = -l2 in a/2 + aZ.  An empty result means the parameters
    fall outside the solved case table, not that the constraint has no
    solutions; callers fall back to scans.
    """
    case = classify_case(t, t_prime)
    if case[0] == "unsolved":
        return []
    a = _symmetric_a(case)
    if a is None or a % 2 == 0:
        return [INTEGER_LATTICE]
    kind = "antidiagonal-half-integer" if a == 1 else "antidiagonal-odd-multiple-a-half"
    return [INTEGER_LATTICE, OrthSolutionFamily(kind, Fraction(a, 2), Fraction(a), True)]


class ScanResult(Frozen):
    __slots__ = ("t", "t_prime", "box", "grid", "min_residual", "argmin", "excluded_kinds")
    _fields = ("t", "t_prime", "box", "grid", "min_residual", "argmin", "excluded_kinds")

    def __init__(
        self,
        t: Fraction,
        t_prime: Fraction,
        box: Tuple[Tuple[float, float], Tuple[float, float]],
        grid: int,
        min_residual: float,
        argmin: Tuple[float, float],
        excluded_kinds: Tuple[str, ...],
    ):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "t_prime", t_prime)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "min_residual", min_residual)
        object.__setattr__(self, "argmin", argmin)
        object.__setattr__(self, "excluded_kinds", excluded_kinds)


def scan_residual(
    t,
    t_prime,
    box=((-4.0, 4.0), (-4.0, 4.0)),
    grid: int = 2000,
    families: Optional[Sequence[OrthSolutionFamily]] = None,
) -> ScanResult:
    """Minimum residual over a cell-centered grid, outside family neighborhoods.

    The box corners are taken exactly (a float by its binary value).  A cell
    is skipped when its exact centre lies on a coordinate axis or in the
    closed sup-norm ball of exact radius EXCLUSION_RADIUS about a family
    member, both decided on the centres' integer numerators; any other gets
    the transform kernel's residual there, its centre reported rounded once.
    The argmin tie-break is lexicographic in the grid index (i, j).

    Only cells that can hold the minimum are evaluated, and the result is the
    dense scan's bit for bit.  ``tau``, the least unmasked residual on a
    strided SCAN_SAMPLE^2 subgrid (``inf`` if all are masked), is a real cell's
    residual, so the minimum is at most ``tau``.  Floating-point ``|z|`` is
    never below ``|Re z|`` or ``|Im z|``, so a cell at or below ``tau`` has its
    ``Re p2[j]`` in one run of the sorted ``Re p2`` (two searches widened by a
    few ulps) and passes the ``Im z`` filter.  Candidates get the dense
    residual, exclusions and tie-break.  Row groups of at most SCAN_GROUP cells
    bound the memory, and a loose ``tau`` costs what a dense scan costs.
    """
    import numpy as np

    if grid < 2:
        raise MalformedInputError("grid must be >= 2")
    t, tp = as_fraction(t), as_fraction(t_prime)
    if families is None:
        families = solve_families(t, tp)
    (x0, x1), (y0, y1) = box
    # an infinite or NaN corner, or a width past the float range, fails
    if not (abs(x1 - x0) <= np.finfo(float).max and abs(y1 - y0) <= np.finfo(float).max):
        raise MalformedInputError(f"scan box must be finite, got {box}")
    if not (x1 > x0 and y1 > y0):
        raise MalformedInputError("degenerate scan box")
    # centres lo + (2i+1)(hi-lo)/(2 grid) over den, int64 below 2^53, read against 0
    corners, D = exact_grid([x0, x1, y0, y1])
    den = 2 * grid * D
    axes = []
    for s, (lo, hi) in zip((t, tp), (corners[:2].tolist(), corners[2:].tolist())):
        small = 2 * grid * max(abs(lo), abs(hi), D) < 2**53
        odd = 2 * np.arange(grid, dtype=np.int64 if small else object) + 1
        x = 2 * grid * lo + odd * (hi - lo)
        rows = transform_rows(IntervalUnionMeasure.unit_interval(s), np.append(x, 0), den)
        ft = rows(slice(0, grid), slice(grid, None), np.empty((grid, 1), dtype=complex))
        axes.append((x, ft[:, 0]))
    (x1s, p1), (x2s, p2) = axes
    near = [(fam.near(x1s, den, 0), fam.near(x2s, den, 1)) for fam in families]

    def masked(i, j, r):
        mask = (x1s[i] == 0) | (x2s[j] == 0)
        for (n1, k1), (n2, k2) in near:
            mask = mask | (n1[i] & n2[j] & (k1[i] == k2[j]))
        return np.where(mask, np.inf, r)

    s = np.arange(0, grid, max(1, grid // SCAN_SAMPLE))
    tau = float(masked(s[:, None], s[None, :], np.abs(p1[s, None] + p2[None, s])).min())
    reach = tau + 8 * np.finfo(float).eps * (1 + tau)
    order = np.argsort(p2.real, kind="stable")
    re2 = p2.real[order]
    lo = np.searchsorted(re2, -p1.real - reach, "left")
    counts = np.searchsorted(re2, -p1.real + reach, "right") - lo
    ends = np.cumsum(counts)
    shift = lo - ends + counts  # the k-th candidate overall, in row i, is order[k + shift[i]]
    best, arg = math.inf, (math.nan, math.nan)
    row = 0
    while row < grid:
        first = ends[row] - counts[row]
        stop = max(row + 1, int(np.searchsorted(ends, first + SCAN_GROUP, "right")))
        c = counts[row:stop]
        i = np.repeat(np.arange(row, stop), c)
        j = order[first + np.arange(i.size) + np.repeat(shift[row:stop], c)]
        z = p1[i] + p2[j]
        keep = np.abs(z.imag) <= reach
        i, j = i[keep], j[keep]
        r = masked(i, j, np.abs(z[keep]))
        val = float(r.min(initial=math.inf))
        if val < best:
            best = val
            cell = int((i * grid + j)[r == val].min())
            arg = (int(x1s[cell // grid]) / den, int(x2s[cell % grid]) / den)
        row = stop
    return ScanResult(
        t=t,
        t_prime=tp,
        box=((float(x0), float(x1)), (float(y0), float(y1))),
        grid=int(grid),
        min_residual=best,
        argmin=arg,
        excluded_kinds=tuple(f.kind for f in families),
    )


class SpectrumClassification(Frozen):
    """Outcome of the maximal-candidate analysis for a symmetric solved case."""

    __slots__ = ("t", "a", "candidate_step", "projection_step", "density_exact",
                 "density_window_estimate", "window", "verdict")
    _fields = ("t", "a", "candidate_step", "projection_step", "density_exact",
               "density_window_estimate", "window", "verdict")

    def __init__(
        self,
        t: Fraction,
        a: int,
        candidate_step: Optional[Fraction],
        projection_step: Optional[Fraction],
        density_exact: Optional[Fraction],
        density_window_estimate: Optional[float],
        window: float,
        verdict: str,
    ):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "candidate_step", candidate_step)
        object.__setattr__(self, "projection_step", projection_step)
        object.__setattr__(self, "density_exact", density_exact)
        object.__setattr__(self, "density_window_estimate", density_window_estimate)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "verdict", verdict)


def classify_spectrum_candidates(
    t, window: float = 100.0, anchors: int = 64
) -> SpectrumClassification:
    """Maximal orthonormal candidate for a symmetric solved case, with verdict.

    With (0,0) in the exponent set, mixed differences force every candidate
    pair onto the antidiagonal with x-coordinates in (a/2)Z.  For a = 1 the
    candidate is a valid orthonormal spectrum.  For even a there are no
    non-integer solutions at all; for odd a >= 3 the projection (a/2)Z has
    density 2/a < 1 and fails the Landau necessary condition for frames.
    The density estimate takes about 8 * window / a points, at most
    CLASSIFY_POINTS.
    """
    if not math.isfinite(window):
        raise MalformedInputError(f"window must be finite, got {window}")
    if not window > 0:
        raise MalformedInputError("window must be positive")
    if anchors < 1:
        raise MalformedInputError("need at least one anchor")
    t = as_fraction(t)
    a = _symmetric_a(classify_case(t, t))
    if a is None:
        raise UnsolvedCaseError(f"t={t} is not a solved symmetric case")
    step = exact = estimate = None
    verdict = "fails: empty non-integer candidate"
    if a % 2 == 1:
        step = Fraction(a, 2)
        exact = Fraction(2, a)
        per_side = 2 * float(window) / float(step)
        if per_side > (CLASSIFY_POINTS - 3) // 2:
            raise MalformedInputError(
                f"window {window} needs {2 * per_side + 3:.3g} candidate points, "
                f"more than {CLASSIFY_POINTS}"
            )
        half_count = int(math.ceil(per_side)) + 1
        # a j / 2 is exact in a float below 2^53, so this is the estimate on (a/2)Z
        proj = [float(step) * j for j in range(-half_count, half_count + 1)]
        estimate = lower_beurling_density(proj, window, anchors)
        verdict = "valid ONB" if exact >= 1 else "fails Landau necessary condition"
    return SpectrumClassification(
        t=t,
        a=a,
        candidate_step=step,
        projection_step=step,
        density_exact=exact,
        density_window_estimate=estimate,
        window=float(window),
        verdict=verdict,
    )
