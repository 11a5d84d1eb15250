import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addspec import (
    ExponentPair,
    ExponentSet,
    PiecewisePolynomial,
    alternating_zigzag_norm,
    assemble,
    collinear_failure_demo,
    combination_norm_sq,
    exp_inner,
    extremal_eigenvalues,
    find_zigzag_loop,
    identity_deviation,
    l_space,
    l_space_onb,
    mirror_spectrum,
    parseval_residual,
    plus_space,
    projection_coefficients,
    riesz_section_certificate,
    space_from_name,
    staircase_zigzag,
    symmetric_space,
    t_space,
)
from addspec.additive_space import AdditiveSpace, _leggauss, support_intervals
from addspec.errors import MalformedInputError
from addspec.gram import (
    ROW_BLOCK,
    GramMatrix,
    _axis_kernel,
    constant_pair,
    monomial_pair,
    random_piecewise_linear,
)
from addspec.measures import IntervalUnionMeasure

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_assemble_identity_for_antidiagonal():
    g = assemble(l_space(), l_space_onb(16).points)
    assert identity_deviation(g) < 1e-12


def test_assemble_single_pair():
    g = assemble(t_space(), [ExponentPair("1/3", "-2/5")])
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == 1.0


def test_assemble_known_two_by_two():
    # quad-verified off-diagonal value 1/2 for the origin-centered space
    g = assemble(plus_space(), [ExponentPair(0, 0), ExponentPair(1, 0)])
    assert g.entries[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert g.entries[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_assemble_rejects_bad_input():
    for dup in (
        [ExponentPair(0, 0), ExponentPair(0, 0)],
        [ExponentPair("1/2", 0), ExponentPair(1, 1), ExponentPair(Fraction(2, 4), 0)],
        # numerators past 2^62 take the object-dtype grid
        [ExponentPair(2**70, 1), ExponentPair(2**70, 1)],
    ):
        with pytest.raises(MalformedInputError, match="duplicate pairs in Gram assembly"):
            assemble(l_space(), dup)
    with pytest.raises(MalformedInputError):
        assemble(l_space(), [])
    # 4097 points: over MATRIX_CAP, rejected before any kernel runs
    with pytest.raises(MalformedInputError, match="exceeds cap 4096"):
        assemble(l_space(), l_space_onb(2048).points)
    # coordinates whose differences overflow a float
    with pytest.raises(MalformedInputError, match="float range"):
        assemble(l_space(), [ExponentPair(0, 0), ExponentPair(10**308, 0)])


@settings(max_examples=60, deadline=None)
@given(
    pts=st.sets(st.tuples(rationals, rationals), min_size=2, max_size=6),
)
def test_assembled_matrix_is_hermitian_with_unit_diagonal(pts):
    s = t_space()
    pairs = [ExponentPair(a, b) for a, b in sorted(pts)]
    g = assemble(s, pairs)
    n = len(pairs)
    assert np.max(np.abs(g.entries - g.entries.conj().T)) < 1e-12
    assert np.max(np.abs(np.diag(g.entries) - 1)) == 0
    # entries recomputed independently of the mirroring
    for i in range(n):
        for j in range(n):
            assert g.entries[i, j] == pytest.approx(
                exp_inner(s, pairs[i], pairs[j]), abs=1e-12
            )


# ---------------------------------------------------------------------------
# The vectorized kernel against the scalar reference exp_inner.
# ---------------------------------------------------------------------------

PRESETS = ["L", "Plus", "T", "Symmetric:t=-1/3", "Symmetric:t=2"]
coords = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def interval_unions(draw):
    """2-3 disjoint pieces with rational endpoints and weights summing to 1."""
    k = draw(st.integers(2, 3))
    ends = sorted(draw(st.sets(st.fractions(-5, 5, max_denominator=6), min_size=2 * k, max_size=2 * k)))
    mass = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    return IntervalUnionMeasure.from_pieces(
        (ends[2 * i], ends[2 * i + 1], Fraction(mass[i], sum(mass))) for i in range(k)
    )


spaces = st.one_of(
    st.sampled_from(PRESETS).map(space_from_name),
    st.builds(AdditiveSpace, interval_unions(), interval_unions()),
)


def assert_matches_reference(s, pairs, tol=1e-14):
    g = assemble(s, pairs).entries
    ref = np.array([[exp_inner(s, p, q) for q in pairs] for p in pairs])
    assert np.max(np.abs(g - ref)) < tol


@settings(max_examples=80, deadline=None)
@given(s=spaces, pts=st.sets(st.tuples(coords, coords), min_size=1, max_size=12))
def test_assemble_matches_exp_inner(s, pts):
    assert_matches_reference(s, [ExponentPair(a, b) for a, b in sorted(pts)])


@pytest.mark.parametrize("k", [1, 10**3, 10**6, 10**9, 10**15])
def test_mirror_identity_at_far_offsets(k):
    # exactly orthonormal; a phase rounded before its reduction mod 2 loses
    # about k * 1e-16 and fails from k = 10**6 on
    g = assemble(symmetric_space(k), mirror_spectrum(k, 32).points)
    assert identity_deviation(g) < 1e-14


def test_numerators_past_int64_use_python_ints():
    # common denominator ~1e27 (three distinct primes): numerators pass 2^62
    primes = (998244353, 1000000007, 1000000009)
    pairs = [
        ExponentPair(Fraction(j, primes[j % 3]), Fraction(-2 * j + 1, primes[(j + 1) % 3]))
        for j in range(-6, 7)
    ]
    pairs += [ExponentPair(pairs[0].a, 5), ExponentPair(7, pairs[1].b)]  # shared coordinates
    for s in (t_space(), symmetric_space(10**9)):
        assert _axis_kernel(s.mu, [p.a for p in pairs])[0].dtype == object
        assert_matches_reference(s, pairs)


def test_common_denominator_past_float_range():
    # 150 distinct primes near 2^10: D has about 1500 bits and every numerator
    # is far past int64, while the coordinates themselves are ordinary floats
    primes = [p for p in range(600, 2400) if all(p % d for d in range(2, 50))][:150]
    pairs = [ExponentPair(Fraction(j, p), Fraction(1 - j, p)) for j, p in enumerate(primes)]
    s = symmetric_space(Fraction(-1, 3))
    assert math.lcm(*primes).bit_length() > 1400
    assert _axis_kernel(s.mu, [p.a for p in pairs])[0].dtype == object
    assert_matches_reference(s, pairs)


def test_int64_edge_differences_do_not_wrap():
    # |numerator| just under 2^62 stays int64 with differences up to 2^63 - 2;
    # one step further switches to Python ints
    big = 2**62 - 1
    below = [ExponentPair(big, 0), ExponentPair(-big, 1), ExponentPair(0, Fraction(1, 3))]
    above = below + [ExponentPair(big + 1, 0)]
    s = plus_space()
    assert _axis_kernel(s.mu, [p.a for p in below])[0].dtype == np.int64
    assert _axis_kernel(s.mu, [p.a for p in above])[0].dtype == object
    for pairs in (below, above):
        assert_matches_reference(s, pairs)


@pytest.mark.parametrize("n", [5, ROW_BLOCK + 3, 2 * ROW_BLOCK + 1])
def test_assembled_matrix_is_exactly_hermitian(n):
    rng = np.random.default_rng(n)
    pool = [(Fraction(int(x), 7), Fraction(int(y), 5)) for x, y in rng.integers(-40, 40, (3 * n, 2))]
    pairs = [ExponentPair(a, b) for a, b in dict.fromkeys(pool)][:n]
    split = IntervalUnionMeasure.from_pieces([("-2", "-1", "1/3"), ("1/2", "3", "2/3")])
    g = assemble(AdditiveSpace(split, symmetric_space(Fraction(-1, 3)).nu), pairs).entries
    assert np.all(np.diag(g) == 1.0)
    assert np.array_equal(g, g.conj().T)


@pytest.mark.parametrize("n", [1, 5, ROW_BLOCK, ROW_BLOCK + 3, 2 * ROW_BLOCK + 1])
def test_identity_deviation_equals_whole_matrix_maximum(n):
    rng = np.random.default_rng(n)
    pool = [(Fraction(int(x), 3), Fraction(int(y), 4)) for x, y in rng.integers(-9, 9, (3 * n, 2))]
    pairs = [ExponentPair(a, b) for a, b in dict.fromkeys(pool)][:n]
    for s in (l_space(), t_space(), symmetric_space(10**6)):
        g = assemble(s, pairs)
        assert identity_deviation(g) == float(np.max(np.abs(g.entries - np.eye(n))))
    # the largest deviation on the diagonal, and a NaN entry, are both kept
    entries = g.entries.copy()
    entries[n - 1, n - 1] = 3 - 1j
    g = GramMatrix(g.pairs, entries)
    assert identity_deviation(g) == float(np.max(np.abs(entries - np.eye(n)))) == abs(2 - 1j)
    entries[0, n - 1] = np.nan
    assert math.isnan(identity_deviation(GramMatrix(g.pairs, entries)))


def test_identity_deviation_forms_no_full_temporary():
    g = assemble(l_space(), l_space_onb(511).points)  # n = 1023, 16 MiB
    tracemalloc.start()
    try:
        identity_deviation(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.entries.nbytes / 8


@settings(max_examples=30, deadline=None)
@given(s=spaces, xs=st.sets(coords, min_size=3, max_size=3), ys=st.sets(coords, min_size=3, max_size=3))
def test_shared_coordinate_contributes_exactly_one_half(s, xs, ys):
    # on a grid, an axis with equal coordinates adds exactly ft(m, 0)/2 = 1/2,
    # so G[(a, b), (a, b')] is the same number for every a, and likewise by rows
    xs, ys = sorted(xs), sorted(ys)
    pairs = [ExponentPair(a, b) for a in xs for b in ys]
    g = assemble(s, pairs).entries.reshape(3, 3, 3, 3)
    for i in range(3):
        assert np.array_equal(g[i, :, i, :], g[0, :, 0, :])
        assert np.array_equal(g[:, i, :, i], g[:, 0, :, 0])


def test_extremal_eigenvalues():
    g = assemble(l_space(), l_space_onb(8).points)
    lo, hi = extremal_eigenvalues(g)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)
    g2 = assemble(plus_space(), [ExponentPair(0, 0), ExponentPair(1, 0)])
    lo, hi = extremal_eigenvalues(g2)
    assert lo == pytest.approx(0.5, abs=1e-10)
    assert hi == pytest.approx(1.5, abs=1e-10)


def test_certificate_degenerate_on_loop(rectangle_points):
    cert = riesz_section_certificate(l_space(), rectangle_points.points, [2, 4])
    assert cert.verdict == "degenerate"
    assert cert.null_combination is not None
    q = combination_norm_sq(l_space(), cert.null_combination)
    assert abs(q) < 1e-10
    # the null vector is the +1/-1 alternation up to phase and normalization
    mags = sorted(abs(c) for _, c in cert.null_combination.terms)
    assert mags == pytest.approx([0.5] * 4, abs=1e-10)


def test_certificate_consistent_on_orthonormal_set():
    pairs = l_space_onb(16).points
    cert = riesz_section_certificate(l_space(), pairs, [5, 11, 33])
    assert cert.verdict == "riesz-consistent"
    assert cert.floor == pytest.approx(1.0, abs=1e-10)


def test_certificate_monotone_sections():
    # interlacing: lambda_min non-increasing, lambda_max non-decreasing
    rng = np.random.default_rng(3)
    pool = [
        ExponentPair(Fraction(n, 2), Fraction(m, 2))
        for n in range(-3, 4)
        for m in range(-3, 4)
    ]
    idx = rng.choice(len(pool), size=12, replace=False)
    pairs = [pool[i] for i in idx]
    cert = riesz_section_certificate(t_space(), pairs, [3, 6, 9, 12])
    for a, b in zip(cert.lambda_min, cert.lambda_min[1:]):
        assert b <= a + 1e-10
    for a, b in zip(cert.lambda_max, cert.lambda_max[1:]):
        assert b >= a - 1e-10


def test_certificate_rejects_bad_sizes():
    pairs = l_space_onb(4).points
    with pytest.raises(MalformedInputError):
        riesz_section_certificate(l_space(), pairs, [])
    with pytest.raises(MalformedInputError):
        riesz_section_certificate(l_space(), pairs, [4, 2])
    with pytest.raises(MalformedInputError):
        riesz_section_certificate(l_space(), pairs, [99])


# ---------------------------------------------------------------------------
# Null combinations: the exact loop alternation, the eigenvector otherwise.
# ---------------------------------------------------------------------------


def _antidiagonal(n, start=0):
    """n integer points (k, -k): orthonormal on L, and they share no line."""
    return [ExponentPair(k, -k) for k in range(start, start + n)]


def _rectangle(x0, y0):
    return [ExponentPair(x0, y0), ExponentPair(x0, y0 + 3), ExponentPair(x0 + 5, y0 + 3),
            ExponentPair(x0 + 5, y0)]


def _cycle(m):
    """The 2m-point zigzag loop (x_i, y_i), (x_i, y_{i+1 mod m}) for m >= 2."""
    return [ExponentPair(i, j) for i in range(m) for j in (10 + i, 10 + (i + 1) % m)]


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_planted_rectangle_takes_the_loop_alternation(eigh_calls):
    pairs = _antidiagonal(10) + _rectangle(20, 20)
    cert = riesz_section_certificate(l_space(), pairs, [10, 14])
    assert cert.verdict == "degenerate"
    assert eigh_calls == []
    assert cert.lambda_min[0] == pytest.approx(1.0, abs=1e-10)
    assert [c for _, c in cert.null_combination.terms] == [0.5, -0.5, 0.5, -0.5]
    assert {p for p, _ in cert.null_combination.terms} == set(pairs[10:])


def test_loop_free_near_duplicate_pair_takes_the_eigenvector(eigh_calls):
    tiny = Fraction(1, 10**12)
    pairs = [ExponentPair(0, 0), ExponentPair(tiny, tiny)]
    cert = riesz_section_certificate(l_space(), pairs, [2])
    assert find_zigzag_loop(ExponentSet.of(pairs)) is None
    assert cert.verdict == "degenerate"
    assert eigh_calls == [2]
    (_, v0), (_, v1) = cert.null_combination.terms
    # (1, -1)/sqrt(2) up to phase
    assert abs(v0) == pytest.approx(2**-0.5, abs=1e-9)
    assert abs(v1 / v0 + 1) < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_loop_alternation_projects_to_exactly_zero(m, eigh_calls):
    pairs = _cycle(m)
    np.random.default_rng(m).shuffle(pairs)
    for s in (l_space(), plus_space(), t_space()):
        cert = riesz_section_certificate(s, pairs, [len(pairs)])
        assert cert.verdict == "degenerate"
        comb = cert.null_combination
        assert len(comb.terms) == 2 * m
        for axis in ("x", "y"):
            assert all(v == 0 for v in projection_coefficients(comb, axis).values())
        assert math.sqrt(sum(abs(c) ** 2 for _, c in comb.terms)) == pytest.approx(1, abs=1e-15)
        assert abs(combination_norm_sq(s, comb)) < 1e-15
    assert eigh_calls == []


def test_loop_lies_in_the_first_degenerate_prefix(eigh_calls):
    # a ladder whose first loop closes at the 10th point and a second at the 20th
    pairs = _antidiagonal(6) + _rectangle(20, 20) + _antidiagonal(6, start=6) + _rectangle(40, 40)
    cert = riesz_section_certificate(l_space(), pairs, [6, 10, 16, 20])
    assert cert.verdict == "degenerate"
    assert cert.lambda_min[0] == pytest.approx(1.0, abs=1e-10)
    assert all(w < 1e-9 for w in cert.lambda_min[1:])
    terms = {p for p, _ in cert.null_combination.terms}
    assert terms == set(pairs[6:10])
    assert eigh_calls == []


# ---------------------------------------------------------------------------
# Parseval residuals.
# ---------------------------------------------------------------------------


def test_parseval_constant_is_exact():
    s = l_space()
    for N in (0, 2, 6):
        r = parseval_residual(s, l_space_onb(N).points, constant_pair(s))
        assert abs(r) < 1e-12


def test_parseval_tail_energy_matches_oracle():
    # independent oracle: adaptive quadrature of the half-integer coefficients
    # of x on [0,1] folded over [-1,1]; frozen values below
    s = l_space()
    f = PiecewisePolynomial.monomial(support_intervals(s.mu), 1)
    g = PiecewisePolynomial.constant(support_intervals(s.nu), 0.0)
    expected = {
        0: 0.104166666667,
        2: 0.020308962381,
        5: 0.009200964886,
        8: 0.005959713426,
    }
    prev = float("inf")
    for N, want in expected.items():
        r = parseval_residual(s, l_space_onb(N).points, (f, g))
        assert r == pytest.approx(want, abs=1e-9)
        assert r <= prev + 1e-12
        prev = r


def test_parseval_failure_on_t_space_block():
    # exact hand computation: coefficients are (delta_m0 - delta_n0)/2, so the
    # block |m|,|n| <= 2 contributes 2 while the energy is 1
    s = t_space()
    f = PiecewisePolynomial.constant(support_intervals(s.mu), 1.0)
    g = PiecewisePolynomial.constant(support_intervals(s.nu), -1.0)
    block = [
        ExponentPair(m, n) for m in range(-2, 3) for n in range(-2, 3)
    ]
    r = parseval_residual(s, block, (f, g))
    assert r == pytest.approx(-1.0, abs=1e-10)
    assert abs(r) > 0.5


def test_parseval_builds_few_quadrature_rules():
    # the integrals are exact moments: no Gauss-Legendre rule is built
    s = l_space()
    pairs = l_space_onb(32).points
    for fn in (constant_pair(s), monomial_pair(s, 1, 1), monomial_pair(s, 3, 3)):
        _leggauss.cache_clear()
        parseval_residual(s, pairs, fn)
        assert _leggauss.cache_info().misses == 0


def mp_norm_sq(mp_integral, m, fn):
    """Reference integral of |fn|^2 dm: sum of c_j conj(c_k) times the moment of x^(j+k)."""
    total = mpmath.mpf(0)
    for l, r, coeffs in fn.pieces:
        for j, cj in enumerate(coeffs):
            for k, ck in enumerate(coeffs):
                mono = PiecewisePolynomial(((l, r, (0.0,) * (j + k) + (1.0,)),))
                total += (mpmath.mpc(cj) * mpmath.mpc(ck).conjugate() * mp_integral(m, mono, 0)).real
    return total


@pytest.mark.parametrize(
    "space, points",
    [
        ("L", [(0, 0), (4000, 0)]),
        ("L", [(0, 0), (1000, 0), (0, 3000), ("1/3", "-7/2")]),
        ("L", "onb"),
        ("Symmetric:t=1", "onb"),
        ("Symmetric:t=999999", "onb"),
        ("Symmetric:t=1000000000", [(0, 0), (0, 1), (1, 1), (1, 0), (2, 5), ("1/2", "-1/3")]),
    ],
)
def test_parseval_residuals_match_mpmath_reference(mp_integral, space, points):
    # 40-digit closed forms of the frame coefficients and the energy; the
    # residual is a difference of numbers the size of the energy, which is
    # 1e12 and more for x and x^3 on [999999, 1000000], so the bound scales
    # with it above 100
    s = space_from_name(space)
    pairs = l_space_onb(64).points if points == "onb" else ExponentSet.of(points).points
    fams = (constant_pair(s), monomial_pair(s, 1, 1), monomial_pair(s, 3, 3))
    for f, g in fams:
        with mpmath.workdps(40):
            frame = mpmath.fsum(
                abs(mp_integral(s.mu, f, -p.a) / 2 + mp_integral(s.nu, g, -p.b) / 2) ** 2
                for p in pairs
            )
            energy = mp_norm_sq(mp_integral, s.mu, f) / 2 + mp_norm_sq(mp_integral, s.nu, g) / 2
            want = float(energy - frame)
        assert abs(parseval_residual(s, pairs, (f, g)) - want) < 1e-14 * max(100.0, float(energy))


# ---------------------------------------------------------------------------
# Alternating zigzag norms.
# ---------------------------------------------------------------------------


def test_alternating_norm_on_loop(rectangle_points):
    loop = find_zigzag_loop(rectangle_points)
    for s in (l_space(), plus_space(), t_space()):
        assert alternating_zigzag_norm(s, loop) == pytest.approx(0.0, abs=1e-10)


def test_alternating_norm_staircase_unit_gap():
    # ends share the y axis side; gap y_1 - y_n = -4 makes the transform
    # factor vanish on [0,1], so the value is exactly 1/2odd * ... = 1
    z = staircase_zigzag(7, start=(1, 1))
    assert z.vertices[0].b - z.vertices[-1].b == -4
    assert alternating_zigzag_norm(l_space(), z) == pytest.approx(1.0, abs=1e-10)


def test_alternating_norm_single_point():
    z = staircase_zigzag(0)
    assert alternating_zigzag_norm(l_space(), z) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [1, 2, 5, 8, 13])
def test_alternating_norm_bounded_by_two(length):
    z = staircase_zigzag(length)
    for s in (l_space(), plus_space(), t_space()):
        v = alternating_zigzag_norm(s, z)
        assert -1e-10 <= v <= 2 + 1e-10


# ---------------------------------------------------------------------------
# Collinear failure demonstration.
# ---------------------------------------------------------------------------


def test_collinear_unit_slope_constant():
    r = collinear_failure_demo(1, 16)
    assert r.ratio == 0.0  # f + rescaled g is identically zero
    assert r.energy > 0


def test_collinear_half_slope():
    r = collinear_failure_demo(Fraction(1, 2), 32)
    assert r.ratio < 1e-10


def test_collinear_random_g():
    r = collinear_failure_demo(1, 16, g="random", seed=5)
    assert r.ratio < 1e-10


def test_collinear_builds_few_quadrature_rules():
    # the integrals over the 129 line frequencies are exact moments: no rule is built
    _leggauss.cache_clear()
    collinear_failure_demo(1, 64)
    collinear_failure_demo(1, 64, g="random", seed=0)
    assert _leggauss.cache_info().misses == 0


@pytest.mark.parametrize(
    "a, N, g, seed",
    [(1, 16, None, 0), (Fraction(1, 2), 32, None, 0), (1, 16, "random", 5),
     (Fraction(127, 255), 256, "random", 11), (Fraction(999_999_999, 1_000_000_000), 64, "random", 2),
     (Fraction(1, 3), 0, None, 0)],
)
def test_collinear_fields_match_mpmath_reference(mp_integral, a, N, g, seed):
    # every frame coefficient is exactly 0, and ||F||^2 = (1/a + 1) ||g||^2 / 2
    # since f is g rescaled onto [-a/2, a/2]
    a = Fraction(a)
    r = collinear_failure_demo(a, N, g=g, seed=seed)
    s = plus_space()
    if g is None:
        g = PiecewisePolynomial.constant(support_intervals(s.nu), 1.0)
    else:
        g = random_piecewise_linear(support_intervals(s.nu), np.random.default_rng(seed), splits=2)
    with mpmath.workdps(40):
        inv_a = mpmath.mpf(a.denominator) / a.numerator
        energy = float((inv_a + 1) * mp_norm_sq(mp_integral, s.nu, g) / 2)
    assert r.n_points == 2 * N + 1
    assert abs(r.energy - energy) < 1e-12
    assert 0 <= r.frame_sum < 1e-12 and 0 <= r.ratio < 1e-12


def test_collinear_rejects_negative_n():
    with pytest.raises(MalformedInputError, match="N must be non-negative"):
        collinear_failure_demo(Fraction(1, 2), -3)
    assert collinear_failure_demo(Fraction(1, 2), 0).n_points == 1


def test_collinear_rejects_bad_slope():
    with pytest.raises(MalformedInputError):
        collinear_failure_demo(Fraction(3, 2), 8)
    with pytest.raises(MalformedInputError):
        collinear_failure_demo(0, 8)


def test_random_piecewise_linear_is_seed_stable():
    s = plus_space()
    a = random_piecewise_linear(support_intervals(s.nu), np.random.default_rng(9))
    b = random_piecewise_linear(support_intervals(s.nu), np.random.default_rng(9))
    assert a == b
