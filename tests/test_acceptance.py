"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines
and the recorded build-time oracle values.
"""

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from addspec import (
    AdditiveSpace,
    ExponentPair,
    ExponentSet,
    IntervalUnionMeasure,
    alternating_zigzag_norm,
    assemble,
    classify_spectrum_candidates,
    collinear_failure_demo,
    combination_norm_sq,
    exp_inner,
    find_zigzag_loop,
    fourier_transform,
    identity_deviation,
    integer_base,
    l_space,
    l_space_onb,
    lev_style_set,
    m_tau_eigenvalues,
    max_zigzag_length,
    mirror_spectrum,
    multiplicity,
    nonoverlap_riesz_spectrum,
    riesz_section_certificate,
    scan_residual,
    solve_families,
    staircase_zigzag,
    symmetric_space,
)
from addspec.ortho_solver import SCAN_ROOT_TOL


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{text}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{text}]: PASS")


def test_criterion_1_l_space_onb_identity():
    with criterion(1, "L-space ONB Gram is the identity, |n| <= 64, < 5 s"):
        start = time.perf_counter()
        g = assemble(l_space(), l_space_onb(64).points)
        deviation = identity_deviation(g)
        elapsed = time.perf_counter() - start
        assert g.size == 129
        assert deviation < 1e-12
        assert elapsed < 5.0


def test_criterion_2_l_space_uniqueness_evidence():
    with criterion(2, "L-space families exhaust all roots on [-4,4]^2, < 60 s"):
        start = time.perf_counter()
        fams = solve_families(0, 0)
        assert [f.kind for f in fams] == [
            "integer-lattice",
            "antidiagonal-half-integer",
        ]
        result = scan_residual(0, 0, ((-4, 4), (-4, 4)), 4000)
        elapsed = time.perf_counter() - start
        # no root at the 1e-6 scan tolerance outside the family neighborhoods
        assert result.min_residual >= 1e-6
        assert elapsed < 60.0


def test_criterion_3_nonoverlap_certificate():
    with criterion(3, "non-overlap spectrum: stable floor > 0.05, eigenvalue window"):
        m = IntervalUnionMeasure.unit_interval(1)
        space = AdditiveSpace(m, m)
        spec = nonoverlap_riesz_spectrum(m, integer_base(64))
        assert spec.tau == Fraction(1, 4)
        sizes = [2 * (2 * N + 1) for N in (8, 16, 32, 64)]
        cert = riesz_section_certificate(space, spec.pairs.points, sizes)
        assert cert.verdict == "riesz-consistent"
        assert cert.floor > 0.05
        assert all(v < 4 for v in cert.lambda_max)
        window_floor = 2 * (1 - math.cos(math.pi / 4))
        for k in range(1000):
            x = 1 + (k + 0.5) / 1000
            lo, hi = m_tau_eigenvalues(spec.tau, x)
            assert window_floor < lo <= hi < 4
        print(f"    recorded lambda_min floor: {cert.floor:.6f} "
              f"(sections {list(cert.lambda_min)})")


def test_criterion_4_loop_degeneracy():
    with criterion(4, "rectangle loop: degenerate section, null form < 1e-10"):
        rect = ExponentSet.of([(1, 1), (1, 3), (3, 1), (3, 3)])
        cert = riesz_section_certificate(l_space(), rect.points, [4])
        assert cert.verdict == "degenerate"
        assert cert.null_combination is not None
        assert abs(combination_norm_sq(l_space(), cert.null_combination)) < 1e-10
        loop = find_zigzag_loop(rect)
        assert abs(alternating_zigzag_norm(l_space(), loop)) < 1e-10


@pytest.mark.parametrize("N", [7, 15, 31])
def test_criterion_5_zigzag_length_bound(N):
    with criterion(5, f"zigzag witness depth {N}: norm^2 <= 2, lambda_min <= 2/(N+1)"):
        es = lev_style_set(2, N)
        spine = staircase_zigzag(N)
        assert all(p in es for p in spine.vertices)
        assert es.points[: N + 1] == spine.vertices
        norm_sq = alternating_zigzag_norm(l_space(), spine)
        assert norm_sq <= 2 + 1e-10
        cert = riesz_section_certificate(l_space(), es.points, [N + 1, len(es)])
        assert cert.floor <= 2 / (N + 1) + 1e-9


@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_criterion_6_symmetric_nonspectral(a):
    with criterion(6, f"symmetric 2t+1 = 1/{a}: classified as non-spectral"):
        t = Fraction(-1, 2) + Fraction(1, 2 * a)
        report = classify_spectrum_candidates(t, window=100)
        assert report.a == a
        assert report.verdict != "valid ONB"
        if a % 2 == 0:
            assert report.candidate_step is None
            assert report.verdict == "fails: empty non-integer candidate"
        else:
            assert report.verdict == "fails Landau necessary condition"
            assert report.density_exact == Fraction(2, a)
            assert abs(report.density_window_estimate - 2 / a) <= 1 / 100 + 1e-12


def test_criterion_7_t_space_scan():
    with criterion(7, "T-space scan: no roots off the integer lattice"):
        result = scan_residual(Fraction(-1, 2), -1, ((0, 1), (0, 1)), 2000)
        # recorded build-time oracle value; the exclusion radius cannot hide
        # the shallow basin around the lattice root (1,1), where the residual
        # follows the analytic diagonal formula sinc(1-d) * 2 sin(pi d/2),
        # so the meaningful floor is the 1e-6 root tolerance, checked here
        d = 1.0 - result.argmin[0]
        analytic = (math.sin(math.pi * (1 - d)) / (math.pi * (1 - d))) * 2 * math.sin(
            math.pi * d / 2
        )
        assert result.argmin[0] == result.argmin[1]
        assert result.min_residual == pytest.approx(analytic, rel=1e-9)
        assert result.min_residual == pytest.approx(4.914866333561291e-06, rel=1e-6)
        assert result.min_residual >= SCAN_ROOT_TOL
        print(f"    recorded min residual: {result.min_residual:.12e} "
              f"at {result.argmin}")


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_8_mirror_spectrum(k):
    with criterion(8, f"mirror spectrum on [{k},{k + 1}]: Gram identity to 1e-12"):
        g = assemble(symmetric_space(k), mirror_spectrum(k, 32).points)
        assert g.size == 65
        assert identity_deviation(g) < 1e-12


def test_criterion_9_collinear_failure():
    with criterion(9, "collinear spectra: frame ratio < 1e-10 in all three setups"):
        assert collinear_failure_demo(1, 32).ratio < 1e-10
        assert collinear_failure_demo(Fraction(1, 2), 32).ratio < 1e-10
        assert collinear_failure_demo(1, 32, g="random", seed=0).ratio < 1e-10


def _brute_loop_exists(points):
    on_x = defaultdict(list)
    on_y = defaultdict(list)
    for p in points:
        on_x[p.a].append(p)
        on_y[p.b].append(p)

    def extend(start, cur, axis, seen, steps):
        nbrs = on_x[cur.a] if axis == "v" else on_y[cur.b]
        for q in nbrs:
            if q == cur:
                continue
            if q == start:
                if steps + 1 >= 4 and (steps + 1) % 2 == 0:
                    return True
                continue
            if q in seen:
                continue
            if extend(start, q, "h" if axis == "v" else "v", seen | {q}, steps + 1):
                return True
        return False

    return any(
        extend(p, p, axis, {p}, 0) for p in points for axis in ("v", "h")
    )


def _random_set(rng, max_points, pool):
    n = int(rng.integers(1, max_points + 1))
    seen = []
    for _ in range(n):
        p = ExponentPair(
            Fraction(int(rng.integers(-pool, pool + 1)), int(rng.integers(1, 3))),
            Fraction(int(rng.integers(-pool, pool + 1)), int(rng.integers(1, 3))),
        )
        if p not in seen:
            seen.append(p)
    return ExponentSet.of(seen)


def test_criterion_10_property_suites():
    with criterion(10, "property suites: transforms, Gram symmetry, zigzag laws"):
        rng = np.random.default_rng(2026)
        unit = IntervalUnionMeasure.unit_interval(0)
        split = IntervalUnionMeasure.from_pieces(
            [("-2", "-1", "1/2"), ("1", "2", "1/2")]
        )

        # conjugate symmetry over 10^4 random frequencies
        lams = rng.uniform(-100.0, 100.0, size=10000)
        for i, lam in enumerate(lams):
            m = unit if i % 2 == 0 else split
            v = fourier_transform(m, lam)
            w = fourier_transform(m, -lam)
            assert abs(v - w.conjugate()) < 1e-12
            assert abs(v) <= 1 + 1e-12

        # Hermitian Gram symmetry on random sections
        space = symmetric_space(Fraction(-1, 3))
        for _ in range(20):
            es = _random_set(rng, 10, 3)
            g = assemble(space, es.points)
            assert np.max(np.abs(g.entries - g.entries.conj().T)) < 1e-12
            # an aligned section holds the real form conj(u_i) u_j G_ij
            u = np.ones(g.size) if g.phases is None else g.phases
            for i in range(g.size):
                for j in range(g.size):
                    direct = u[i].conjugate() * u[j] * exp_inner(space, es.points[i], es.points[j])
                    assert abs(g.entries[i, j] - direct) < 1e-12

        # multiplicity one <=> no zigzag moves, on 10^3 random sets
        for _ in range(1000):
            es = _random_set(rng, 20, 4)
            flat = multiplicity(es)[0] == 1
            assert flat == (max_zigzag_length(es) == 0)

        # loop detector against the brute-force alternating-walk oracle
        loops_seen = 0
        for _ in range(300):
            es = _random_set(rng, 12, 2)
            found = find_zigzag_loop(es)
            assert (found is not None) == _brute_loop_exists(es.points)
            if found is not None:
                loops_seen += 1
                assert found.is_loop
        assert loops_seen > 20
