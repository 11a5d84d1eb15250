"""The orthogonality constraint for interval components, and its solution sets.

Two exponentials over components [t, t+1] and [t', t'+1] are orthogonal in
the additive space iff their frequency differences (l1, l2), both nonzero,
satisfy

    e^{pi i l1 (2t+1)} S(pi l1) + e^{pi i l2 (2t'+1)} S(pi l2) = 0,

with S(z) = sin(z)/z.  Closed-form solution families are hard-coded for the
three solved parameter cases (t = t' = 0; symmetric 2t+1 = 1/a with integer
a >= 2; t = -1/2, t' = -1).  Everything else degrades to residual scans,
never to fabricated families.

A residual scan evaluates only the grid cells that can hold its minimum, and
is exact: a sampled unmasked cell bounds the minimum, and |z| >= |Re z| puts
every cell under that bound in one searchable run of each grid row.
numpy is imported inside the functions that compute with it, so importing
this module loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import MalformedInputError, MultiplicityOneViolation, UnsolvedCaseError
from .exponents import lower_beurling_density
from .measures import as_fraction

FAMILY_TOL = 1e-12
SCAN_ROOT_TOL = 1e-6
EXCLUSION_RADIUS = 1e-3
SCAN_SAMPLE = 64  # rows and columns of the subgrid that bounds the residual scan
SCAN_GROUP = 1 << 20  # most candidate cells the residual scan evaluates at once


def _phase_factor(two_t_plus_1: float, lam: np.ndarray) -> np.ndarray:
    import numpy as np

    # np.sinc(x) is sin(pi x)/(pi x), exactly the multiplier in play
    return np.exp(1j * np.pi * two_t_plus_1 * lam) * np.sinc(lam)


def residual(t, t_prime, l1: float, l2: float) -> float:
    """|LHS + RHS| of the orthogonality constraint; 0 iff (l1, l2) solves it."""
    import numpy as np

    if l1 == 0 or l2 == 0:
        raise MultiplicityOneViolation("frequency differences must be nonzero")
    if not (math.isfinite(float(l1)) and math.isfinite(float(l2))):
        raise MalformedInputError("non-finite frequency difference")
    w1 = float(2 * as_fraction(t) + 1)
    w2 = float(2 * as_fraction(t_prime) + 1)
    v = _phase_factor(w1, np.float64(l1)) + _phase_factor(w2, np.float64(l2))
    return float(abs(v))


@dataclass(frozen=True)
class OrthSolutionFamily:
    """Parametrized solutions (l1, l2) of the orthogonality constraint.

    integer-lattice families range over all pairs of nonzero integers;
    antidiagonal families have l1 = offset + step*n with l2 = -l1 forced.
    """

    kind: str
    offset: Fraction = Fraction(0)
    step: Fraction = Fraction(1)
    sign_coupled: bool = False

    def members(self, count: int) -> Iterator[Tuple[Fraction, Fraction]]:
        """First ``count`` members in a deterministic near-origin-first order."""
        produced = 0
        if self.kind == "empty":
            return
        if self.kind == "integer-lattice":
            ring = 1
            while produced < count:
                cells = sorted(
                    {
                        (m, n)
                        for m in range(-ring, ring + 1)
                        for n in range(-ring, ring + 1)
                        if m != 0 and n != 0 and max(abs(m), abs(n)) == ring
                    }
                )
                for m, n in cells:
                    if produced >= count:
                        return
                    yield Fraction(m), Fraction(n)
                    produced += 1
                ring += 1
            return
        j = 0
        while produced < count:
            for jj in ((j,) if j == 0 else (j, -j)):
                if produced >= count:
                    return
                l1 = self.offset + self.step * jj
                yield l1, -l1
                produced += 1
            j += 1

    def near_mask(self, l1: np.ndarray, l2: np.ndarray, radius: float) -> np.ndarray:
        """Elementwise mask of points within ``radius`` (sup norm) of a member.

        ``near_mask(l1[:, None], l2[None, :], r)`` masks a whole grid.
        """
        import numpy as np

        if self.kind == "empty":
            return np.zeros(np.broadcast(l1, l2).shape, dtype=bool)
        if self.kind == "integer-lattice":
            r1 = np.round(l1)
            r2 = np.round(l2)
            n1 = (np.abs(l1 - r1) <= radius) & (r1 != 0)
            return n1 & (np.abs(l2 - r2) <= radius) & (r2 != 0)
        off = float(self.offset)
        st = float(self.step)
        m = off + st * np.round((l1 - off) / st)
        n1 = (np.abs(l1 - m) <= radius) & (m != 0)
        return n1 & (np.abs(l2 + m) <= radius)


def integer_lattice_family() -> OrthSolutionFamily:
    return OrthSolutionFamily(kind="integer-lattice", sign_coupled=False)


def classify_case(t, t_prime) -> Tuple:
    """("L",), ("symmetric", a), ("T",) or ("unsolved",) for the parameters."""
    t = as_fraction(t)
    tp = as_fraction(t_prime)
    if t == 0 and tp == 0:
        return ("L",)
    if t == tp:
        w = 2 * t + 1
        if w > 0 and w.numerator == 1 and w.denominator >= 2:
            return ("symmetric", w.denominator)
    if t == Fraction(-1, 2) and tp == -1:
        return ("T",)
    return ("unsolved",)


def solve_families(t, t_prime) -> List[OrthSolutionFamily]:
    """Closed-form families for the solved cases; empty list when unsolved.

    An empty result means the parameters fall outside the solved case table,
    not that the constraint has no solutions; callers fall back to scans.
    """
    case = classify_case(t, t_prime)
    if case[0] == "L":
        return [
            integer_lattice_family(),
            OrthSolutionFamily(
                kind="antidiagonal-half-integer",
                offset=Fraction(1, 2),
                step=Fraction(1),
                sign_coupled=True,
            ),
        ]
    if case[0] == "symmetric":
        a = case[1]
        fams = [integer_lattice_family()]
        if a % 2 == 1:
            fams.append(
                OrthSolutionFamily(
                    kind="antidiagonal-odd-multiple-a-half",
                    offset=Fraction(a, 2),
                    step=Fraction(a),
                    sign_coupled=True,
                )
            )
        return fams
    if case[0] == "T":
        return [integer_lattice_family()]
    return []


@dataclass(frozen=True)
class ScanResult:
    t: Fraction
    t_prime: Fraction
    box: Tuple[Tuple[float, float], Tuple[float, float]]
    grid: int
    min_residual: float
    argmin: Tuple[float, float]
    excluded_kinds: Tuple[str, ...]


def scan_residual(
    t,
    t_prime,
    box=((-4.0, 4.0), (-4.0, 4.0)),
    grid: int = 2000,
    families: Optional[Sequence[OrthSolutionFamily]] = None,
) -> ScanResult:
    """Minimum residual over a cell-centered grid, outside family neighborhoods.

    Family neighborhoods are closed sup-norm balls of radius EXCLUSION_RADIUS;
    the radius gets a one-part-in-10^9 slack so boundary ties resolve the same
    way regardless of rounding in the grid coordinates.  Cells on the
    coordinate axes (a zero frequency difference) are always skipped, and so
    are cells whose residual is NaN.  The argmin tie-break is lexicographic in
    the grid index (i, j).

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
    t = as_fraction(t)
    tp = as_fraction(t_prime)
    if families is None:
        families = solve_families(t, tp)
    (x0, x1), (y0, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise MalformedInputError("degenerate scan box")
    # an infinite or NaN corner, or a width past the float range, leaves a
    # non-finite width
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise MalformedInputError(f"scan box must be finite, got {box}")
    radius = EXCLUSION_RADIUS * (1 + 1e-9)
    l1s = x0 + (np.arange(grid) + 0.5) * (x1 - x0) / grid
    l2s = y0 + (np.arange(grid) + 0.5) * (y1 - y0) / grid
    p1 = _phase_factor(float(2 * t + 1), l1s)
    p2 = _phase_factor(float(2 * tp + 1), l2s)

    def masked(i, j, r):
        a, b = l1s[i], l2s[j]
        mask = (np.abs(a) < 1e-12) | (np.abs(b) < 1e-12) | np.isnan(r)
        for fam in families:
            mask = mask | fam.near_mask(a, b, radius)
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
    best = math.inf
    arg = (math.nan, math.nan)
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
            arg = (float(l1s[cell // grid]), float(l2s[cell % grid]))
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


@dataclass(frozen=True)
class SpectrumClassification:
    """Outcome of the maximal-candidate analysis for a symmetric solved case."""

    t: Fraction
    a: int
    candidate_step: Optional[Fraction]
    projection_step: Optional[Fraction]
    density_exact: Optional[Fraction]
    density_window_estimate: Optional[float]
    window: float
    verdict: str


def classify_spectrum_candidates(
    t, window: float = 100.0, anchors: int = 64
) -> SpectrumClassification:
    """Maximal orthonormal candidate for a symmetric solved case, with verdict.

    With (0,0) in the exponent set, mixed differences force every candidate
    pair onto the antidiagonal with x-coordinates in (a/2)Z.  For a = 1 the
    candidate is a valid orthonormal spectrum.  For even a there are no
    non-integer solutions at all; for odd a >= 3 the projection (a/2)Z has
    density 2/a < 1 and fails the Landau necessary condition for frames.
    """
    if not math.isfinite(window):
        raise MalformedInputError(f"window must be finite, got {window}")
    if not window > 0:
        raise MalformedInputError("window must be positive")
    t = as_fraction(t)
    case = classify_case(t, t)
    if case[0] == "L":
        a = 1
    elif case[0] == "symmetric":
        a = case[1]
    else:
        raise UnsolvedCaseError(f"t={t} is not a solved symmetric case")
    if a % 2 == 0:
        return SpectrumClassification(
            t=t,
            a=a,
            candidate_step=None,
            projection_step=None,
            density_exact=None,
            density_window_estimate=None,
            window=float(window),
            verdict="fails: empty non-integer candidate",
        )
    step = Fraction(a, 2)
    half_count = int(math.ceil(2 * float(window) / float(step))) + 1
    proj = [step * j for j in range(-half_count, half_count + 1)]
    estimate = lower_beurling_density(proj, window, anchors)
    exact = Fraction(2, a)
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
