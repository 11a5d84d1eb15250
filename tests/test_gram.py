import contextlib
import math
import pickle
import re
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
    FiniteCombination,
    PiecewisePolynomial,
    alternating_zigzag_norm,
    assemble,
    collinear_failure_demo,
    combination_norm_sq,
    exp_inner,
    extremal_eigenvalues,
    find_zigzag_loop,
    identity_deviation,
    integer_base,
    l_space,
    l_space_onb,
    lev_style_set,
    mirror_spectrum,
    nonoverlap_riesz_spectrum,
    parseval_residual,
    plus_space,
    projection_coefficients,
    riesz_section_certificate,
    space_from_name,
    staircase_zigzag,
    symmetric_space,
    t_space,
)
from addspec import gram
from addspec.additive_space import AdditiveSpace, _leggauss, support_intervals
from addspec.errors import MalformedInputError
from addspec.gram import (
    ROW_BLOCK,
    GramMatrix,
    _half_rows,
    monomial_pair,
    random_piecewise_linear,
)
from addspec.exact import ratio
from addspec.measures import IntervalUnionMeasure, exact_grid, transform_rows

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_assemble_identity_for_antidiagonal():
    g = assemble(l_space(), l_space_onb(16).points)
    assert identity_deviation(g) < 1e-12


def test_assemble_single_pair():
    g = assemble(t_space(), [ExponentPair("1/3", "-2/5")])
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == 1.0


def test_gram_matrix_compares_by_identity():
    """A section holds a matrix, not a value: two assemblies of one set are
    two records, which compare and hash without reading their arrays."""
    es = ExponentSet.from_json([["0", "0"], ["1/2", "-1/2"]])
    g, h = assemble(l_space(), es), assemble(l_space(), es)
    assert np.array_equal(g.entries, h.entries) and g.phases is not None
    assert g == g and not g == h and g != h
    assert hash(g) == hash(g) and len({g, h, g}) == 2
    assert "phases" not in repr(g) and repr(g).startswith("GramMatrix(points=")
    again = pickle.loads(pickle.dumps(g))
    assert again != g and again.points == g.points
    assert np.array_equal(again.entries, g.entries) and np.array_equal(again.phases, g.phases)
    with pytest.raises(AttributeError):
        g.entries = h.entries


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
        with pytest.raises(MalformedInputError, match="duplicate points in exponent set"):
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
    # and independently of measures.transform_rows, which exp_inner shares
    assert_near_mpmath(s, pairs, 1e-14)


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


def kernel_rows(s, pairs):
    """G's complex rows as the kernel computes them (``gram._row_blocks``)."""
    blocks = gram._row_blocks(*gram._axes(s, ExponentSet(pairs)))
    return np.concatenate([block.copy() for _, block in blocks])


def complex_gram(s, pairs):
    """G: the assembled ``entries``, or on a phase-aligned section, whose
    ``entries`` hold the real form, the kernel rows, once ``entries`` is
    checked to be their rotation  Re(conj(u_p) u_q G_pq)."""
    g = assemble(s, pairs)
    if g.phases is None:
        return g.entries
    kernel = kernel_rows(s, pairs)
    rotated = g.phases.conj()[:, None] * kernel * g.phases
    assert np.max(np.abs(g.entries - rotated.real)) <= 4 * np.finfo(float).eps
    return kernel


def assert_matches_reference(s, pairs, tol=1e-14):
    """Against exp_inner entry by entry and, as both run the kernel
    ``measures.transform_rows``, against the 40-digit ``mp_transform`` on
    the first 12 rows."""
    g = complex_gram(s, pairs)
    ref = np.array([[exp_inner(s, p, q) for q in pairs] for p in pairs])
    assert np.max(np.abs(g - ref)) < tol
    assert_near_mpmath(s, pairs, tol, rows=12)


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
        assert _half_rows(s.mu, ExponentSet(pairs), "x")[0].dtype == object
        assert_matches_reference(s, pairs)


def test_common_denominator_past_float_range():
    # 150 distinct primes near 2^10: D has about 1500 bits and every numerator
    # is far past int64, while the coordinates themselves are ordinary floats
    primes = [p for p in range(600, 2400) if all(p % d for d in range(2, 50))][:150]
    pairs = [ExponentPair(Fraction(j, p), Fraction(1 - j, p)) for j, p in enumerate(primes)]
    s = symmetric_space(Fraction(-1, 3))
    assert math.lcm(*primes).bit_length() > 1400
    assert _half_rows(s.mu, ExponentSet(pairs), "x")[0].dtype == object
    assert_matches_reference(s, pairs)


def test_int64_edge_differences_do_not_wrap():
    # |numerator| just under 2^62 stays int64 with differences up to 2^63 - 2;
    # one step further switches to Python ints
    big = 2**62 - 1
    below = [ExponentPair(big, 0), ExponentPair(-big, 1), ExponentPair(0, Fraction(1, 3))]
    above = below + [ExponentPair(big + 1, 0)]
    s = plus_space()
    assert _half_rows(s.mu, ExponentSet(below), "x")[0].dtype == np.int64
    assert _half_rows(s.mu, ExponentSet(above), "x")[0].dtype == object
    for pairs in (below, above):
        assert_matches_reference(s, pairs)


# ---------------------------------------------------------------------------
# The kernel against 40-digit closed forms, and its two assembly paths.
# ---------------------------------------------------------------------------

SPLIT = IntervalUnionMeasure.from_pieces([("-2", "-1", "1/3"), ("1/2", "3", "2/3")])
LATTICE = [ExponentPair(Fraction(i, 3), Fraction(j, 2)) for i in range(-4, 4) for j in range(-4, 4)]
GAPPED = [ExponentPair(0, 0), ExponentPair(10**15, 1), ExponentPair(2, 10**15),
          ExponentPair(Fraction(1, 3), -7), ExponentPair(5, Fraction(2, 5))]


def _mpq(x):
    return mpmath.mpf(x.numerator) / x.denominator


def mp_transform(m, lam):
    """ft(m, lam) from its closed form at the working precision; both phases
    are reduced mod 2 in Fractions before mpmath sees them."""
    if lam == 0:
        return mpmath.mpc(1)
    total = mpmath.mpc(0)
    for l, r, w in m.pieces:
        z = lam * (r - l)
        sinc = mpmath.sinpi(_mpq(z % 2)) / (mpmath.pi * _mpq(z))
        total += _mpq(w) * mpmath.expjpi(_mpq(lam * (l + r) % 2)) * sinc
    return total


def assert_near_mpmath(s, pairs, tol=4.4e-16, rows=None):
    """The section's G (``complex_gram``), or its first ``rows`` rows,
    within ``tol`` of the closed form at 40 digits."""
    g = complex_gram(s, pairs)
    halves = {}

    def half(m, lam):
        # the closed form has ft(m, -lam) = conj ft(m, lam) exactly
        if lam < 0:
            return mpmath.conj(half(m, -lam))
        if (m, lam) not in halves:
            halves[m, lam] = mp_transform(m, lam) / 2
        return halves[m, lam]

    with mpmath.workdps(40):
        worst = max(
            abs(half(s.mu, p.a - q.a) + half(s.nu, p.b - q.b) - mpmath.mpc(g[i, j]))
            for i, p in enumerate(pairs[:rows]) for j, q in enumerate(pairs)
        )
    assert float(worst) <= tol


@pytest.mark.parametrize("k", [1, 10**3, 10**6, 10**9, 10**15])
def test_mirror_sections_match_mpmath(k):
    assert_near_mpmath(space_from_name(f"Symmetric:t={k}"), mirror_spectrum(k, 32).points)


def test_large_denominators_match_mpmath():
    primes = (998244353, 1000000007, 1000000009)
    pairs = [
        ExponentPair(Fraction(j, primes[j % 3]), Fraction(-2 * j + 1, primes[(j + 1) % 3]))
        for j in range(-6, 7)
    ]
    for s in (t_space(), symmetric_space(10**9), AdditiveSpace(SPLIT, t_space().nu)):
        assert_near_mpmath(s, pairs)


# spelled rationals: "1/2" and "2/4" are one line, as are "-3" and "-6/2"
spelled = st.one_of(
    st.builds(lambda n, d, k: f"{n * k}/{d * k}",
              st.integers(-(2**70), 2**70), st.integers(1, 10**15), st.integers(1, 3)),
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "2/4", "-3/6", "-6/2", str(2**62), str(10**400), f"-{10**400}/3"]),
)


def _distinct_points(raw):
    """The raw (x, y) entries as [x, y] lists, each point's first spelling only."""
    points = {}
    for p in raw:
        points.setdefault(tuple(map(ratio, p)), list(p))
    return list(points.values())


@settings(max_examples=80, deadline=None)
@given(raw=st.lists(st.tuples(spelled, spelled), min_size=1, max_size=7))
def test_set_keys_give_the_exact_grid_of_every_prefix(raw):
    """Each axis's grid read from a prefix's line keys is ``exact_grid`` of
    its values: the same D, numerators and dtype, or the same rejection."""
    data = _distinct_points(raw)
    es = ExponentSet.from_json(data)
    for n in range(1, len(data) + 1):
        pre = es.prefix(n)
        parsed = ExponentSet.from_json(data[:n])
        assert (pre.xid, pre.yid, pre._keys) == (parsed.xid, parsed.yid, parsed._keys)
        for axis, col in (("x", 0), ("y", 1)):
            try:
                want, D = exact_grid([p[col] for p in data[:n]])
            except MalformedInputError as exc:
                with pytest.raises(MalformedInputError, match=re.escape(str(exc))):
                    exact_grid(*pre.axis_keys(axis))
                continue
            got, got_D = exact_grid(*pre.axis_keys(axis))
            assert got_D == D and got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("pairs", [LATTICE, GAPPED], ids=["lattice", "gapped"])
def test_table_and_direct_paths_match_mpmath(pairs):
    for s in (l_space(), symmetric_space(10**15), AdditiveSpace(SPLIT, t_space().nu)):
        assert_near_mpmath(s, pairs)


def _spans(s, pairs):
    es = ExponentSet(pairs)
    grids = (_half_rows(s.mu, es, "x")[0], _half_rows(s.nu, es, "y")[0])
    return [int(g.max() - g.min()) for g in grids]


@pytest.mark.parametrize("far", [(10**15, 10**15 + 1), (Fraction(10**15, 7), -(10**15))])
def test_direct_path_agrees_with_table_path(far):
    # the lattice alone is gathered from span tables; one far point sends both
    # axes through the direct kernel, and its leading block must not move
    s = AdditiveSpace(SPLIT, symmetric_space(Fraction(-1, 3)).nu)
    n = len(LATTICE)
    wide = LATTICE + [ExponentPair(*far)]
    assert all(2 * span + 1 <= n * n / 4 for span in _spans(s, LATTICE))
    assert all(2 * span + 1 > (n + 1) ** 2 / 4 for span in _spans(s, wide))
    table = assemble(s, LATTICE).entries
    direct = assemble(s, wide).entries[:n, :n]
    assert np.max(np.abs(direct - table)) <= 2.3e-16


@pytest.mark.parametrize("n", [5, ROW_BLOCK + 3, 2 * ROW_BLOCK + 1])
def test_assembled_matrix_is_exactly_hermitian(n):
    rng = np.random.default_rng(n)
    pool = [(Fraction(int(x), 7), Fraction(int(y), 5)) for x, y in rng.integers(-40, 40, (3 * n, 2))]
    pairs = [ExponentPair(a, b) for a, b in dict.fromkeys(pool)][:n]
    split = IntervalUnionMeasure.from_pieces([("-2", "-1", "1/3"), ("1/2", "3", "2/3")])
    s = AdditiveSpace(split, symmetric_space(Fraction(-1, 3)).nu)
    # a far point sends the y axis, and then both, through the per-block path
    for extra in ([], [ExponentPair(0, 10**12)], [ExponentPair(10**12, 10**12)]):
        g = assemble(s, pairs + extra).entries
        assert np.all(np.diag(g) == 1.0)
        assert np.array_equal(g, g.conj().T)


def test_combination_norm_sq_has_no_section_cap(monkeypatch):
    # taken block by block, the quadratic form needs no n x n matrix
    monkeypatch.setattr(gram, "MATRIX_CAP", 8)
    rng = np.random.default_rng(3)
    pairs = LATTICE[:40] + [ExponentPair(10**12, Fraction(1, 7))]
    c = FiniteCombination(tuple((p, complex(*rng.normal(size=2))) for p in pairs))
    with pytest.raises(MalformedInputError):
        assemble(l_space(), pairs)
    want = sum(cp * cq.conjugate() * exp_inner(l_space(), p, q) for p, cp in c.terms for q, cq in c.terms)
    assert combination_norm_sq(l_space(), c) == pytest.approx(want.real, rel=1e-13)


@pytest.mark.parametrize("n", [1, 5, ROW_BLOCK, ROW_BLOCK + 3, 2 * ROW_BLOCK + 1])
def test_identity_deviation_equals_whole_matrix_maximum(n):
    rng = np.random.default_rng(n)
    pool = [(Fraction(int(x), 3), Fraction(int(y), 4)) for x, y in rng.integers(-9, 9, (3 * n, 2))]
    pairs = [ExponentPair(a, b) for a, b in dict.fromkeys(pool)][:n]
    for s in (l_space(), t_space(), symmetric_space(10**6)):
        g = assemble(s, pairs)
        assert identity_deviation(g) == float(np.max(np.abs(g.entries - np.eye(n))))
    # the largest deviation on the diagonal, and a NaN entry, are both kept
    entries = g.entries.astype(complex)
    entries[n - 1, n - 1] = 3 - 1j
    g = GramMatrix(g.points, entries)
    assert identity_deviation(g) == float(np.max(np.abs(entries - np.eye(n)))) == abs(2 - 1j)
    entries[0, n - 1] = np.nan
    assert math.isnan(identity_deviation(GramMatrix(g.points, entries)))


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
    g = complex_gram(s, pairs).reshape(3, 3, 3, 3)
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


def test_certificate_rejects_repeated_sizes():
    # a repeated size compares a section with itself, so its floor looks stable
    pairs = lev_style_set(2, 7).points
    assert riesz_section_certificate(l_space(), pairs, [4, 8]).verdict == "indeterminate"
    for sizes in ([8, 8], [4, 8, 8], [4, 4, 8]):
        with pytest.raises(MalformedInputError, match="ascending"):
            riesz_section_certificate(l_space(), pairs, sizes)


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
    # the first degenerate size ends at the closing point (10) or lies past it (16, 20)
    for sizes in ([6, 10, 16, 20], [6, 16, 20], [6, 20]):
        cert = riesz_section_certificate(l_space(), pairs, sizes)
        assert cert.verdict == "degenerate"
        assert cert.lambda_min[0] == pytest.approx(1.0, abs=1e-10)
        assert all(w < 1e-9 for w in cert.lambda_min[1:])
        terms = {p for p, _ in cert.null_combination.terms}
        assert terms == set(pairs[6:10])
    assert eigh_calls == []
    # a near-duplicate pair makes the first 5 points degenerate with no loop:
    # the rectangle after it closes its loop at the 6th point, past that size
    tiny = Fraction(1, 10**12)
    pairs = [ExponentPair(0, 0), ExponentPair(tiny, tiny)] + _rectangle(20, 20)
    cert = riesz_section_certificate(l_space(), pairs, [5, 6])
    assert [p for p, _ in cert.null_combination.terms] == pairs[:5]
    assert eigh_calls == [5]
    # once the prefix holds the closing point, the loop replaces the eigenvector
    cert = riesz_section_certificate(l_space(), pairs, [6])
    assert {p for p, _ in cert.null_combination.terms} == set(pairs[2:])
    assert [abs(c) for _, c in cert.null_combination.terms] == [0.5] * 4
    assert eigh_calls == [5]


# ---------------------------------------------------------------------------
# The real symmetric eigen step of phase-aligned sections.
# ---------------------------------------------------------------------------

INT_LATTICE = [ExponentPair(a, b) for a in range(-4, 5) for b in range(-4, 5)]
BIG = (998244353, 1000000007, 1000000009)


def _moved(points, step):
    """The points with the fourth one moved by ``step`` along x."""
    pts = list(points)
    pts[3] = ExponentPair(pts[3].a + step, pts[3].b)
    return pts


ALIGNED = {
    **{f"lattice_{name}": (name, INT_LATTICE) for name in ("L", "Plus", "T", "Symmetric:t=3")},
    "lev_L": ("L", lev_style_set(2, 60).points),
    "lev_Plus": ("Plus", lev_style_set(3, 40).points),
    "lev_T": ("T", lev_style_set(4, 20).points),
    "onb_L": ("L", l_space_onb(40).points),
    # 2 (b - a) c = 5 m is an integer for c = 5/6; the phases are not +-1, +-i
    "rational_Symmetric_1/3": ("Symmetric:t=1/3", [
        ExponentPair(Fraction(j, 7), Fraction(j, 7) + 3 * (j % 5)) for j in range(-40, 41, 3)
    ]),
    # common denominators near 1e27: the residues and their lcm are Python ints
    "big_denominators_Symmetric_1/3": ("Symmetric:t=1/3", [
        ExponentPair(Fraction(j, BIG[j % 3]), Fraction(j, BIG[j % 3]) + 3 * (j % 5))
        for j in range(-20, 21)
    ]),
    **{f"mirror_k{label}": (f"Symmetric:t={k}", mirror_spectrum(k, 40).points)
       for label, k in (("1", 1), ("1e3", 10**3), ("1e9", 10**9), ("1e15", 10**15))},
}
UNALIGNED = {
    "nonoverlap_doubled": (
        symmetric_space(3),
        nonoverlap_riesz_spectrum(symmetric_space(3).mu, integer_base(16)).pairs.points,
    ),
    "mirror_k1e15_moved": (
        symmetric_space(10**15),
        _moved(mirror_spectrum(10**15, 40).points, Fraction(1, 10**15)),
    ),
    "two_piece_asymmetric": (AdditiveSpace(SPLIT, SPLIT), INT_LATTICE),
    "big_denominators_shifted": (symmetric_space(Fraction(1, 3)), [
        ExponentPair(Fraction(j, BIG[j % 3]), Fraction(j, BIG[j % 3]) + 3 * (j % 5) + (j == 7))
        for j in range(-20, 21)
    ]),
}


def transform_kernel(s, pairs):
    """G from ``measures.transform_rows`` on each axis's ``exact_grid``,
    whichever rows ``gram._half_rows`` would take."""
    n = len(pairs)
    g = np.zeros((n, n), dtype=complex)
    for m, values in ((s.mu, [p.a for p in pairs]), (s.nu, [p.b for p in pairs])):
        rows = transform_rows(m, *exact_grid(values), 0.5)
        g += rows(slice(None), slice(None), np.empty((n, n), dtype=complex))
    return g


def line_gram(pairs):
    """1/2 [same x] + 1/2 [same y], from the exact coordinates."""
    return np.array([[(p.a == q.a) / 2 + (p.b == q.b) / 2 for q in pairs] for p in pairs])


def _by_lines(s, pairs):
    """Whether each axis of the section takes line-id rows."""
    x, y = gram._axes(s, ExponentSet(pairs))
    return x[3], y[3]


@pytest.mark.parametrize("space, pairs", ALIGNED.values(), ids=ALIGNED.keys())
def test_aligned_sections_take_the_real_eigen_step(space, pairs):
    # integer sets (the lattices and lev sets) are G itself, from the line
    # ids; the others are the phase-rotated real form of G
    s = space_from_name(space)
    g = assemble(s, pairs)
    integer = all(p.a.denominator == p.b.denominator == 1 for p in pairs)
    assert _by_lines(s, pairs) == (integer, integer)
    u = gram._aligned_phases(s, *gram._axes(s, ExponentSet(pairs)))
    assert u is not None
    kernel = transform_kernel(s, pairs) if integer else kernel_rows(s, pairs)
    rotated = u.conj()[:, None] * kernel * u
    assert np.max(np.abs(rotated.imag)) <= 4 * np.finfo(float).eps
    r = g.entries
    assert r.dtype == np.float64 and np.array_equal(r, r.T)
    if integer:
        assert g.phases is None
        assert np.array_equal(r, line_gram(pairs)) and np.array_equal(r, kernel)
    else:
        assert np.array_equal(g.phases, u)
    assert np.max(np.abs(r - (kernel.real if integer else rotated.real))) <= 4 * np.finfo(float).eps
    want = np.linalg.eigvalsh(kernel)
    for w, got in zip((want[0], want[-1]), extremal_eigenvalues(g)):
        assert abs(got - w) <= 1e-13 * max(1.0, abs(w))


@pytest.mark.parametrize("space, pairs", UNALIGNED.values(), ids=UNALIGNED.keys())
def test_unaligned_sections_keep_the_complex_eigen_step(space, pairs):
    g = assemble(space, pairs)
    assert g.phases is None and g.entries.dtype == np.complex128


def test_aligned_sections_are_assembled_as_one_real_matrix():
    # the float64 real form is the only n x n array: a complex G beside it
    # would add 16 n^2 bytes to the peak
    s, pairs = l_space(), l_space_onb(511).points  # n = 1023
    n = len(pairs)
    assemble(s, pairs)  # warm-up
    tracemalloc.start()
    try:
        g = assemble(s, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.entries.dtype == np.float64
    assert peak < 1.5 * 8 * n**2
    space, doubled = UNALIGNED["nonoverlap_doubled"]
    assert assemble(space, doubled).entries.dtype == np.complex128


def test_symmetric_two_piece_measure_is_aligned():
    # pieces mirrored about 0 with equal weights: the transform is real
    mirrored = IntervalUnionMeasure.from_pieces([("-3", "-2", "1/2"), ("2", "3", "1/2")])
    g = assemble(AdditiveSpace(mirrored, SPLIT), INT_LATTICE)
    assert g.phases is None
    g = assemble(AdditiveSpace(mirrored, mirrored), INT_LATTICE)
    assert np.all(g.phases == 1)


@pytest.mark.parametrize("step", [(1, 1), (1, Fraction(101, 100))], ids=["aligned", "unaligned"])
def test_loop_free_null_combination_norm_is_lambda_min(step, eigh_calls):
    # a loop-free near-duplicate pair far from 0, on the real eigen step and
    # on the complex one: the squared norm of sum c_p e_p is lambda_min, as
    # the coefficients c are the conjugate of G's eigenvector (the real
    # form's one multiplied by the phases)
    s = symmetric_space(10**9)
    tiny = Fraction(1, 3 * 10**12)
    pairs = [ExponentPair(0, 0), ExponentPair(step[0] * tiny, step[1] * tiny)]
    cert = riesz_section_certificate(s, pairs, [2])
    assert (cert.gram.phases is not None) == (step == (1, 1))
    assert cert.verdict == "degenerate" and eigh_calls == [2]
    assert abs(combination_norm_sq(s, cert.null_combination) - cert.lambda_min[0]) < 1e-15
    # the real vector (1, -1)/sqrt(2) is 2e-6 from null here, and so is the
    # eigenvector of G itself
    (_, v0), (_, v1) = cert.null_combination.terms
    assert abs(v1 / v0 + 1) > 1e-3
    conj = FiniteCombination(tuple((p, c.conjugate()) for p, c in cert.null_combination.terms))
    assert combination_norm_sq(s, conj) > 1e-7


# ---------------------------------------------------------------------------
# Sets congruent mod 1 on each axis: G is 1/2 [same x] + 1/2 [same y].
# ---------------------------------------------------------------------------

unit_spaces = st.one_of(
    st.sampled_from(["L", "Plus", "T"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=50).map(lambda t: f"Symmetric:t={t}"),
)


@st.composite
def congruent_sets(draw):
    """A shuffled staircase, loop-free or beside a planted rectangle, plus a
    few loose integer points, all moved by one rational offset per axis."""
    looped = draw(st.booleans())
    pts = set(staircase_zigzag(draw(st.integers(1, 12)), start=(-3, -3)).vertices)
    if looped:
        pts |= set(_rectangle(20, 20))
    # loose points on fresh x lines, each on its own y line: leaves, no loop
    pts |= {ExponentPair(a, 50 + 2 * a) for a in draw(st.sets(st.integers(-40, -10), max_size=8))}
    offset = draw(st.tuples(*[st.fractions(0, 1, max_denominator=30)] * 2))
    pairs = [ExponentPair(p.a + offset[0], p.b + offset[1]) for p in pts]
    pairs = draw(st.permutations(sorted(pairs, key=lambda p: (p.a, p.b))))
    assert (find_zigzag_loop(ExponentSet(pairs)) is not None) == looped
    return pairs


@settings(max_examples=40, deadline=None)
@given(space=unit_spaces, pairs=congruent_sets(), data=st.data())
def test_congruent_sets_take_line_id_rows(space, pairs, data):
    s = space_from_name(space)
    assert _by_lines(s, pairs) == (True, True)
    g = assemble(s, pairs)
    assert g.phases is None and g.entries.dtype == np.float64
    assert np.array_equal(g.entries, line_gram(pairs))
    # the per-entry kernel is exact at these differences too
    ref = np.array([[exp_inner(s, p, q) for q in pairs] for p in pairs])
    assert np.array_equal(g.entries, ref)
    # one coordinate off by 1/7 sends its axis back to the transform
    i, axis = data.draw(st.integers(0, len(pairs) - 1)), data.draw(st.sampled_from("xy"))
    step = Fraction(1, 7)
    moved = list(pairs)
    p = moved[i]
    moved[i] = ExponentPair(p.a + step, p.b) if axis == "x" else ExponentPair(p.a, p.b + step)
    assert _by_lines(s, moved) == ((axis == "y"), (axis == "x"))
    assert_matches_reference(s, moved)


NEAR = Fraction(1, 3**50)
FAR_INT64 = {
    # D = 3^50 is past 2^63, and so is the quarter-turn modulus of residues
    "denominator_past_2^63": (l_space(), [ExponentPair(p.a + NEAR, p.b) for p in _rectangle(0, 0)]),
    "numerators_past_2^62": (t_space(), [ExponentPair(2**70 + p.a, p.b) for p in _rectangle(0, 0)]),
    # an all-zero grid on a piece of width 3^-50: residues' max(1, ...) rule
    "all_zero_grid": (
        AdditiveSpace(IntervalUnionMeasure.from_pieces([(0, NEAR, 1)]), l_space().nu),
        [ExponentPair(0, b) for b in range(-3, 4)],
    ),
}


@pytest.mark.parametrize("s, pairs", FAR_INT64.values(), ids=FAR_INT64.keys())
def test_line_id_rows_at_the_int64_edges(s, pairs):
    assert _by_lines(s, pairs) == (True, True)
    g = assemble(s, pairs)
    ref = np.array([[exp_inner(s, p, q) for q in pairs] for p in pairs])
    assert np.array_equal(g.entries, line_gram(pairs)) and np.array_equal(g.entries, ref)
    # a near miss: one point 3^-50 off the others' residue keeps the transform
    near = [ExponentPair(p.a + NEAR * (i == 1), p.b) for i, p in enumerate(pairs)]
    assert _by_lines(s, near) == (False, True)
    assert_matches_reference(s, near)


def test_integer_sets_need_no_span_table():
    # 2048 points over [0, 5e5)^2: both spans are under the table threshold,
    # where each axis kept a 2 * span + 1 complex table beside the section
    rng = np.random.default_rng(5)
    pool = dict.fromkeys(map(tuple, rng.integers(0, 500000, (2100, 2)).tolist()))
    pairs = [ExponentPair(a, b) for a, b in pool][:2048]
    n, s = len(pairs), l_space()
    assert n == 2048 and all(2 * span + 1 <= n * n / 4 for span in _spans(s, pairs))
    es = ExponentSet(pairs)
    assemble(s, es)  # warm-up
    tracemalloc.start()
    try:
        g = assemble(s, es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.phases is None and g.entries.dtype == np.float64
    assert peak <= 1.1 * 8 * n**2


@pytest.mark.parametrize("space", ["L", "Plus", "T", "Symmetric:t=2/7"])
def test_alternating_norm_is_exact_on_integer_sets(space, rectangle_points):
    # the loop obstruction with no rounding: a loop's alternation is exactly
    # null, and an open staircase's leaves one unit exponential per axis
    s = space_from_name(space)
    assert alternating_zigzag_norm(s, find_zigzag_loop(rectangle_points)) == 0.0
    for length in (1, 2, 7, 40):
        assert alternating_zigzag_norm(s, staircase_zigzag(length, start=(3, -2))) == 1.0


# ---------------------------------------------------------------------------
# The half-size eigen step of sections that split into two orthonormal halves.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _counted_eigvalsh():
    """np.linalg.eigvalsh counting the sizes of the matrices it is given; a
    context manager, as hypothesis tests take no function-scoped fixture."""
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    np.linalg.eigvalsh = counted
    try:
        yield sizes
    finally:
        np.linalg.eigvalsh = eigvalsh


def _assert_matches_dense(e, sizes, cert):
    for n, low, high in zip(sizes, cert.lambda_min, cert.lambda_max):
        w = np.linalg.eigvalsh(e[:n, :n])
        assert abs(low - w[0]) <= 1e-13 * max(1.0, abs(w[0]))
        assert abs(high - w[-1]) <= 1e-13 * max(1.0, abs(w[-1]))


@settings(max_examples=40, deadline=None)
@given(
    base=st.sets(st.integers(-60, 60), min_size=1, max_size=24),
    t=st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9),
    negative=st.booleans(),
    data=st.data(),
)
def test_doubled_spectra_take_the_half_size_step(base, t, negative, data):
    # {(l, l)} u {(l, l + tau)} on an integer base: each half is exactly
    # orthonormal on a unit interval, whatever t and tau are
    s = symmetric_space(-1 - t if negative else t)
    pairs = data.draw(st.permutations(nonoverlap_riesz_spectrum(s.mu, sorted(base)).pairs.points))
    sizes = sorted(data.draw(st.sets(st.integers(1, len(pairs)), min_size=1, max_size=4)))
    e = assemble(s, pairs).entries
    assert gram._halves(e) is not None
    with _counted_eigvalsh() as calls:
        cert = riesz_section_certificate(s, pairs, sizes)
    # only C C^H on the smaller half, never the dense section
    assert all(c <= sizes[-1] // 2 for c in calls)
    _assert_matches_dense(e, sizes, cert)


def test_orthonormal_sets_have_eigenvalues_exactly_one():
    for space, pairs in (("L", l_space_onb(40).points), ("Symmetric:t=1", mirror_spectrum(1, 40).points)):
        g = assemble(space_from_name(space), pairs)
        assert identity_deviation(g) == 0.0
        with _counted_eigvalsh() as calls:
            assert extremal_eigenvalues(g) == (1.0, 1.0)
        assert calls == []


def test_generic_phases_keep_the_diagonal_exactly_one():
    # (l, l) with x on [t, t + 1] and y on two unit pieces mirrored about
    # the same centre c = t + 1/2 is aligned and orthonormal; only the x axis
    # takes line-id rows, so the section keeps its phases e^{2 pi i l c},
    # which are generic, and some miss |u|^2 = 1 by an ulp
    x = symmetric_space(Fraction(1, 1000003)).mu
    c = Fraction(1, 1000003) + Fraction(1, 2)
    y = IntervalUnionMeasure.from_pieces([(c - 3, c - 2, "1/2"), (c + 2, c + 3, "1/2")])
    pairs = [ExponentPair(l, l) for l in range(-20, 21)]
    s = AdditiveSpace(x, y)
    assert _by_lines(s, pairs) == (True, False)
    g = assemble(s, pairs)
    assert np.any(np.abs(g.phases) ** 2 != 1)
    e = g.entries
    assert np.all(e.diagonal() == 1.0)
    assert gram._halves(e) is not None
    assert extremal_eigenvalues(g) == (1.0, 1.0)


def test_diagonal_off_one_keeps_the_dense_step():
    # the rectangle's section is [[I, C], [C^H, I]] on its two halves; one
    # diagonal entry an ulp above 1 makes it no such matrix, so the eigen
    # step is eigvalsh's on the whole section
    g = assemble(l_space(), _rectangle(0, 0))
    assert gram._halves(g.entries) is not None
    e = g.entries.copy()
    e[0, 0] = np.nextafter(1.0, 2.0)
    assert gram._halves(e) is None
    with _counted_eigvalsh() as calls:
        got = extremal_eigenvalues(GramMatrix(g.points, e))
    assert calls == [4]
    w = np.linalg.eigvalsh(e)
    assert got == (float(w[0]), float(w[-1]))


def test_shuffled_lev_path_takes_the_half_size_step():
    # lines of at most two points: the joins form long paths, which the
    # breadth-first colouring walks from each path's smallest point
    pairs = list(lev_style_set(2, 60).points)
    np.random.default_rng(2).shuffle(pairs)
    sizes = [31, 62]
    e = assemble(l_space(), pairs).entries
    assert gram._halves(e) is not None
    with _counted_eigvalsh() as calls:
        cert = riesz_section_certificate(l_space(), pairs, sizes)
    assert all(c <= 31 for c in calls)
    _assert_matches_dense(e, sizes, cert)


@pytest.mark.parametrize("space, pairs", [
    ("L", [ExponentPair(0, 0), ExponentPair(0, 1), ExponentPair(0, 2), ExponentPair(5, 7)]),
    ("T", lev_style_set(3, 40).points),
    ("Symmetric:t=1/3", [ExponentPair(Fraction(j, 3), Fraction(-j, 5)) for j in range(12)]),
], ids=["three_on_a_line", "lev_q3", "dense_unaligned"])
def test_non_bipartite_sections_keep_the_dense_step(space, pairs):
    s = space_from_name(space)
    e = assemble(s, pairs).entries
    assert gram._halves(e) is None
    with _counted_eigvalsh() as calls:
        cert = riesz_section_certificate(s, pairs, [len(pairs)])
    assert calls == [len(pairs)]
    _assert_matches_dense(e, [len(pairs)], cert)


def test_rectangle_splits_and_keeps_the_loop_alternation(eigh_calls):
    # the L-space rectangle is a 4-cycle of joins, so bipartite; its section
    # is singular, and the null combination is still the exact alternation
    pairs = _rectangle(0, 0)
    e = assemble(l_space(), pairs).entries
    assert gram._halves(e) is not None
    cert = riesz_section_certificate(l_space(), pairs, [3, 4])
    assert cert.lambda_min[0] == pytest.approx(1 - 0.5**0.5, abs=1e-15)
    assert abs(cert.lambda_min[1]) < 1e-15 and cert.lambda_max[1] == pytest.approx(2, abs=1e-15)
    assert cert.verdict == "degenerate" and eigh_calls == []
    assert [c for _, c in cert.null_combination.terms] == [0.5, -0.5, 0.5, -0.5]


def _colouring(n, edges, seed=0):
    """gram._two_colouring on the edges, each turned a random way round and
    the list shuffled, as ``_halves`` passes first and last neighbours."""
    rng = np.random.default_rng(seed)
    e = rng.permuted(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    rng.shuffle(e)
    side = gram._two_colouring(n, e[:, 0], e[:, 1])
    assert side.dtype == bool and side.shape == (n,)
    return side


def test_two_colouring_of_a_shuffled_path():
    labels = np.random.default_rng(4).permutation(41).tolist()
    edges = list(zip(labels, labels[1:]))
    origin = labels.index(0)
    want = [(i - origin) % 2 == 1 for i in range(41)]
    side = _colouring(41, edges)
    assert [bool(side[p]) for p in labels] == want


def test_two_colouring_of_a_complete_bipartite_graph():
    labels = np.random.default_rng(5).permutation(8).tolist()
    part, rest = labels[:3], labels[3:]
    side = _colouring(8, [(p, q) for p in part for q in rest])
    assert set(side[part].tolist()) == {0 not in part}
    assert set(side[rest].tolist()) == {0 in part}


def test_two_colouring_of_isolated_points():
    assert not gram._two_colouring(6, np.array([], dtype=np.int64), np.array([], dtype=np.int64)).any()


def test_two_colouring_of_several_components():
    labels = np.random.default_rng(6).permutation(18).tolist()
    groups = [labels[0:5], labels[5:9], labels[9:13], labels[13:15]] + [[p] for p in labels[15:]]
    path, star, square, pair = groups[:4]
    edges = list(zip(path, path[1:])) + [(star[0], p) for p in star[1:]]
    edges += list(zip(square, square[1:] + square[:1])) + [tuple(pair)]
    # _halves passes a point's only neighbour twice, as first and as last
    side = _colouring(18, edges + edges[:3], seed=1)
    assert all(side[p] != side[q] for p, q in edges)
    # each component's smallest point is False: the orientation that fixes
    # which half C's rows come from
    assert not any(side[min(c)] for c in groups)


def test_odd_cycle_returns_and_is_no_split():
    cycle = [(p, (p + 1) % 5) for p in range(5)]
    assert _colouring(5, cycle).shape == (5,)
    for n, edges, splits in ((5, cycle, False), (6, [(p, (p + 1) % 6) for p in range(6)], True)):
        e = np.eye(n)
        for p, q in edges:
            e[p, q] = e[q, p] = 0.25
        assert (gram._halves(e) is not None) is splits


# ---------------------------------------------------------------------------
# Parseval residuals.
# ---------------------------------------------------------------------------


def test_parseval_constant_is_exact():
    s = l_space()
    for N in (0, 2, 6):
        r = parseval_residual(s, l_space_onb(N).points, monomial_pair(s, 0, 0))
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
    for fn in (monomial_pair(s, 0, 0), monomial_pair(s, 1, 1), monomial_pair(s, 3, 3)):
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
    fams = (monomial_pair(s, 0, 0), monomial_pair(s, 1, 1), monomial_pair(s, 3, 3))
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


def test_collinear_rejects_an_unknown_test_function():
    with pytest.raises(MalformedInputError) as err:
        collinear_failure_demo(1, 8, g="bogus")
    assert str(err.value) == "unknown test function 'bogus'"


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
        g = random_piecewise_linear(support_intervals(s.nu), np.random.default_rng(seed))
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
