import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addspec import ortho_solver
from addspec import (
    classify_case,
    classify_spectrum_candidates,
    residual,
    scan_residual,
    solve_families,
)
from addspec.errors import (
    MalformedInputError,
    MultiplicityOneViolation,
    UnsolvedCaseError,
)
from addspec.ortho_solver import EXCLUSION_RADIUS, FAMILY_TOL, SCAN_ROOT_TOL


def test_residual_at_solution_points():
    assert residual(0, 0, 0.5, -0.5) < 1e-12
    assert residual(0, 0, 1.0, 1.0) < 1e-12
    assert residual(0, 0, -2.0, 3.0) < 1e-12


def test_residual_off_solution():
    # frozen from the direct closed-form evaluation
    v = residual(Fraction(-1, 2), -1, 0.3, 0.7)
    assert v == pytest.approx(0.7077754198225027, abs=1e-12)
    assert v >= 0.1


def test_residual_rejects_zero_differences():
    with pytest.raises(MultiplicityOneViolation):
        residual(0, 0, 0.0, 1.0)
    with pytest.raises(MultiplicityOneViolation):
        residual(0, 0, 1.0, 0)
    with pytest.raises(MalformedInputError):
        residual(0, 0, float("nan"), 1.0)


def test_case_table():
    assert classify_case(0, 0) == ("L",)
    assert classify_case(Fraction(-1, 4), Fraction(-1, 4)) == ("symmetric", 2)
    assert classify_case(Fraction(-1, 3), Fraction(-1, 3)) == ("symmetric", 3)
    assert classify_case(Fraction(-1, 2), -1) == ("T",)
    assert classify_case(Fraction(-1, 2), Fraction(-1, 2)) == ("unsolved",)
    assert classify_case(Fraction(1, 5), Fraction(1, 5)) == ("unsolved",)


def test_families_for_each_case():
    fams = solve_families(0, 0)
    assert [f.kind for f in fams] == ["integer-lattice", "antidiagonal-half-integer"]
    assert fams[1].offset == Fraction(1, 2) and fams[1].step == 1
    assert fams[1].sign_coupled

    assert [f.kind for f in solve_families(Fraction(-1, 4), Fraction(-1, 4))] == [
        "integer-lattice"
    ]
    fams = solve_families(Fraction(-1, 3), Fraction(-1, 3))
    assert [f.kind for f in fams] == [
        "integer-lattice",
        "antidiagonal-odd-multiple-a-half",
    ]
    assert fams[1].offset == Fraction(3, 2) and fams[1].step == 3

    assert [f.kind for f in solve_families(Fraction(-1, 2), -1)] == ["integer-lattice"]
    assert solve_families(Fraction(-1, 2), Fraction(-1, 2)) == []


@pytest.mark.parametrize(
    "t,tp",
    [
        (Fraction(0), Fraction(0)),
        (Fraction(-1, 4), Fraction(-1, 4)),
        (Fraction(-1, 3), Fraction(-1, 3)),
        (Fraction(-1, 5), Fraction(-1, 5)),  # 2t+1 = 3/5: unsolved, no families
        (Fraction(-2, 5), Fraction(-2, 5)),  # 2t+1 = 1/5
        (Fraction(-1, 2), Fraction(-1)),
    ],
)
def test_first_hundred_members_solve_the_equation(t, tp):
    for fam in solve_families(t, tp):
        for l1, l2 in fam.members(100):
            assert residual(t, tp, float(l1), float(l2)) < FAMILY_TOL
            if fam.sign_coupled:
                assert l2 == -l1


def test_l_families_are_disjoint():
    fams = solve_families(0, 0)
    lattice = set(fams[0].members(200))
    anti = set(fams[1].members(200))
    assert lattice.isdisjoint(anti)


def test_member_enumeration_is_deterministic():
    fam = solve_families(0, 0)[1]
    assert list(fam.members(5)) == list(fam.members(5))
    lattice = solve_families(0, 0)[0]
    first = list(lattice.members(8))
    assert first == sorted(set(first), key=first.index)
    assert all(l1 != 0 and l2 != 0 for l1, l2 in first)


def test_scan_finds_root_near_family_point():
    # no exclusions: the minimum sits next to the antidiagonal member (1/2,-1/2)
    r = scan_residual(0, 0, ((0.4, 0.6), (-0.6, -0.4)), 100, families=[])
    assert r.min_residual < 0.01
    assert abs(r.argmin[0] - 0.5) < 0.02 and abs(r.argmin[1] + 0.5) < 0.02


def test_scan_t_space_recorded_oracle():
    r = scan_residual(Fraction(-1, 2), -1, ((0, 1), (0, 1)), 2000)
    # recorded at build time; the analytic diagonal corner formula
    # sinc(1-d) * 2 sin(pi d / 2) at d = 2.5 cells is the independent check
    d = 1.0 - r.argmin[0]
    analytic = (math.sin(math.pi * (1 - d)) / (math.pi * (1 - d))) * 2 * math.sin(
        math.pi * d / 2
    )
    assert r.argmin[0] == r.argmin[1]
    assert r.min_residual == pytest.approx(analytic, rel=1e-9)
    assert r.min_residual == pytest.approx(4.914866333561291e-06, rel=1e-6)
    assert r.min_residual >= SCAN_ROOT_TOL


def test_scan_symmetric_a2_off_lattice_floor():
    r = scan_residual(Fraction(-1, 4), Fraction(-1, 4), ((0, 2), (0, 2)), 1000)
    # recorded oracle value 3.3517e-5; no roots at scan tolerance off Z^2
    assert r.min_residual == pytest.approx(3.351733584963036e-05, rel=1e-6)
    assert r.min_residual >= SCAN_ROOT_TOL


def test_scan_rejects_bad_input():
    with pytest.raises(MalformedInputError):
        scan_residual(0, 0, ((0, 1), (0, 1)), 1)
    with pytest.raises(MalformedInputError):
        scan_residual(0, 0, ((1, 0), (0, 1)), 10)
    for box in (((0, math.inf), (0, 1)), ((0, 1), (-math.inf, 1)), ((-1e308, 1e308), (0, 1))):
        with pytest.raises(MalformedInputError, match="scan box must be finite"):
            scan_residual(0, 0, box, 10)


def test_scan_is_deterministic():
    a = scan_residual(0, 0, ((-2, 2), (-2, 2)), 301)
    b = scan_residual(0, 0, ((-2, 2), (-2, 2)), 301)
    assert a == b


def dense_scan(t, tp, box, grid, families):
    """Every cell of the grid at once: (min residual, argmin), first index on ties."""
    radius = EXCLUSION_RADIUS * (1 + 1e-9)
    (x0, x1), (y0, y1) = box
    l1 = x0 + (np.arange(grid) + 0.5) * (x1 - x0) / grid
    l2 = y0 + (np.arange(grid) + 0.5) * (y1 - y0) / grid

    def phase(w, lam):
        return np.exp(1j * np.pi * w * lam) * np.sinc(lam)

    r = np.abs(phase(float(2 * t + 1), l1)[:, None] + phase(float(2 * tp + 1), l2)[None, :])
    mask = (np.abs(l1) < 1e-12)[:, None] | (np.abs(l2) < 1e-12)[None, :]
    for fam in families:
        if fam.kind == "integer-lattice":
            n1 = (np.abs(l1 - np.round(l1)) <= radius) & (np.round(l1) != 0)
            n2 = (np.abs(l2 - np.round(l2)) <= radius) & (np.round(l2) != 0)
            mask |= n1[:, None] & n2[None, :]
        else:
            off, st_ = float(fam.offset), float(fam.step)
            m = off + st_ * np.round((l1 - off) / st_)
            near = (np.abs(l1 - m) <= radius) & (m != 0)
            mask |= near[:, None] & (np.abs(l2[None, :] + m[:, None]) <= radius)
    r[mask] = np.inf
    k = int(np.argmin(r))
    if r.flat[k] == np.inf:
        return math.inf, (math.nan, math.nan)
    i, j = divmod(k, grid)
    return float(r.flat[k]), (float(l1[i]), float(l2[j]))


def assert_scan_matches_dense(t, tp, box, grid, families=None):
    got = scan_residual(t, tp, box, grid, families=families)
    fams = solve_families(t, tp) if families is None else families
    best, arg = dense_scan(Fraction(t), Fraction(tp), box, grid, fams)
    # exact equality, NaN-aware: np.testing compares NaN positions as equal
    np.testing.assert_array_equal([got.min_residual, *got.argmin], [best, *arg])
    return got


SOLVED = [(0, 0), ("-1/4", "-1/4"), ("-1/3", "-1/3"), ("-2/5", "-2/5"), ("-1/2", -1)]
parameter = st.fractions(min_value=-2, max_value=2, max_denominator=40)


@settings(max_examples=120, deadline=None)
@given(
    ts=st.one_of(
        st.sampled_from(SOLVED),
        st.tuples(parameter, parameter),
        parameter.map(lambda t: (t, t)),
    ),
    centre=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
    half=st.tuples(st.floats(1e-3, 4), st.floats(1e-3, 4)),
    grid=st.integers(2, 160),
)
@example(ts=(0, 0), centre=(0.0, 0.0), half=(4.0, 4.0), grid=160)
@example(ts=(-0.5, -1), centre=(0.0, 0.0), half=(1.0, 1.0), grid=2)
def test_scan_equals_dense_scan(ts, centre, half, grid):
    t, tp = (Fraction(v) for v in ts)
    box = tuple((c - h, c + h) for c, h in zip(centre, half))
    assert_scan_matches_dense(t, tp, box, grid)


@pytest.mark.parametrize(
    "t,tp,root",
    [(0, 0, (1, -2)), (0, 0, (0.5, -0.5)), (Fraction(-1, 3), Fraction(-1, 3), (-1.5, 1.5)),
     (Fraction(-1, 2), -1, (3, 1))],
)
@pytest.mark.parametrize("half", [1e-4, 9e-4])
def test_scan_inside_an_exclusion_is_empty(t, tp, root, half):
    box = tuple((c - half, c + half) for c in root)
    r = assert_scan_matches_dense(t, tp, box, 97)
    assert r.min_residual == math.inf
    assert math.isnan(r.argmin[0]) and math.isnan(r.argmin[1])


@pytest.mark.parametrize("swap", [False, True])
def test_scan_skips_cells_on_the_axes(swap):
    # with t = -1/2 and t' = 1 the residual |sinc(l1) + 1| along l2 = 0 is a
    # local minimum, so the cells on the axis would win if they were scanned
    t, tp, box = Fraction(-1, 2), Fraction(1), ((1.3, 1.6), (-0.1, 0.1))
    if swap:
        t, tp, box = tp, t, box[::-1]
    r = assert_scan_matches_dense(t, tp, box, 101)
    l = r.argmin[1] if swap else r.argmin[0]
    assert 0.0 not in r.argmin
    assert abs(np.sinc(l) + 1) < r.min_residual


# t = -1/2 makes the residual even in each coordinate: ties within a row too
@pytest.mark.parametrize(
    "t", [Fraction(0), Fraction(-1, 3), Fraction(1, 7), Fraction(-5, 6), Fraction(-1, 2)]
)
@pytest.mark.parametrize("box", [((-2, 2), (-2, 2)), ((-0.5, 3), (-0.5, 3))])
def test_symmetric_scan_breaks_ties_by_grid_index(t, box):
    # with t = t' on a square box, cells (i, j) and (j, i) tie exactly
    r = assert_scan_matches_dense(t, t, box, 128, families=[])
    assert r.argmin[0] <= r.argmin[1]
    assert residual(t, t, *r.argmin) == residual(t, t, r.argmin[1], r.argmin[0])


@pytest.mark.parametrize(
    "t,tp,box",
    [
        (0, 0, ((-4, 4), (-4, 4))),
        (Fraction(1, 9), Fraction(-4, 7), ((-3, 3.5), (-1, 2))),
        # a strip of unmasked cells the sampled subgrid misses: tau is inf
        (0, 0, ((1 - 0.00099, 1 + 0.00102), (1 - 0.00099, 1 + 0.00099))),
    ],
)
def test_scan_in_small_row_groups_equals_dense_scan(monkeypatch, t, tp, box):
    monkeypatch.setattr(ortho_solver, "SCAN_GROUP", 100)
    assert math.isfinite(assert_scan_matches_dense(t, tp, box, 300).min_residual)


def test_scan_skips_cells_whose_residual_is_nan():
    # far out, pi (2t+1) l overflows and the phase factor of a cell is NaN
    with np.errstate(all="ignore"):
        r = scan_residual(Fraction(1, 7), Fraction(2, 9), ((-1e307, 1e307), (-1, 1)), 64)
    assert math.isfinite(r.min_residual)
    assert all(math.isfinite(v) for v in r.argmin)


@pytest.mark.parametrize(
    "t,tp,min_residual,argmin",
    [
        (Fraction(-1, 3), Fraction(-1, 3), 1.9999723913689314e-06, (-3.003, 2.997)),
        (Fraction(-3, 8), Fraction(-3, 8), 3.138454629494815e-06, (-1.001, 3.003)),
        (Fraction(-1, 2), Fraction(-1), 3.13845462949434e-06, (-3.003, -1.001)),
    ],
)
def test_production_grid_scans_are_unchanged(t, tp, min_residual, argmin):
    # recorded from the dense scan of every cell, before the pruned search
    r = scan_residual(t, tp, ((-4, 4), (-4, 4)), 4000)
    assert r.min_residual == min_residual
    assert r.argmin == argmin


def test_classify_valid_case():
    c = classify_spectrum_candidates(0)
    assert c.verdict == "valid ONB"
    assert c.candidate_step == Fraction(1, 2)
    assert c.density_exact == 2


def test_classify_odd_case_density():
    c = classify_spectrum_candidates(Fraction(-1, 3), window=100)
    assert c.verdict == "fails Landau necessary condition"
    assert c.candidate_step == Fraction(3, 2)
    assert c.projection_step == Fraction(3, 2)
    assert c.density_exact == Fraction(2, 3)
    assert abs(c.density_window_estimate - 2 / 3) <= 1 / 100 + 1e-12


def test_classify_even_case_empty():
    c = classify_spectrum_candidates(Fraction(-1, 4))
    assert c.verdict == "fails: empty non-integer candidate"
    assert c.candidate_step is None
    assert c.density_window_estimate is None


@pytest.mark.parametrize("t", [0, Fraction(-1, 3), Fraction(-1, 4)])
@pytest.mark.parametrize("window", [-5.0, -1e-300, 0.0])
def test_classify_rejects_non_positive_window(t, window):
    # a window of no length gives no candidates, whose density would read 0
    with pytest.raises(MalformedInputError, match="window must be positive"):
        classify_spectrum_candidates(t, window=window)


def test_classify_rejects_unsolved():
    with pytest.raises(UnsolvedCaseError):
        classify_spectrum_candidates(Fraction(-1, 2))
    with pytest.raises(UnsolvedCaseError):
        classify_spectrum_candidates(Fraction(1, 7))
