import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from addspec import (
    ExponentPair,
    FiniteCombination,
    PiecewisePolynomial,
    combination_norm_sq,
    exp_inner,
    l_space,
    plus_space,
    projection_coefficients,
    space_from_name,
    t_space,
)
from addspec.additive_space import (
    measure_integral,
    measure_norm_sq,
    support_intervals,
)
from addspec.errors import MalformedInputError
from addspec.measures import IntervalUnionMeasure

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_presets():
    L = l_space()
    assert L.mu.pieces == ((0, 1, 1),)
    assert L.nu.pieces == ((0, 1, 1),)
    P = plus_space()
    assert P.mu.pieces == ((Fraction(-1, 2), Fraction(1, 2), 1),)
    T = t_space()
    assert T.nu.pieces == ((-1, 0, 1),)
    S = space_from_name("Symmetric:t=-1/3")
    assert S.mu.pieces == ((Fraction(-1, 3), Fraction(2, 3), 1),)
    assert space_from_name("L") == L
    with pytest.raises(MalformedInputError):
        space_from_name("Q")


def test_exp_inner_examples():
    L = l_space()
    assert exp_inner(L, ExponentPair(Fraction(1, 2), Fraction(-1, 2)), ExponentPair(0, 0)) == pytest.approx(0, abs=1e-12)
    assert exp_inner(L, ExponentPair(Fraction(7, 3), 2), ExponentPair(Fraction(7, 3), 2)) == 1.0
    # quad-verified: transform of [-1/2,1/2] vanishes at 1, is 1 at 0
    assert exp_inner(plus_space(), ExponentPair(1, 0), ExponentPair(0, 0)) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=200)
@given(a=rationals, b=rationals, u=rationals, v=rationals)
def test_exp_inner_hermitian(a, b, u, v):
    s = t_space()
    p = ExponentPair(a, b)
    q = ExponentPair(u, v)
    assert abs(exp_inner(s, p, q) - exp_inner(s, q, p).conjugate()) < 1e-12


def test_norm_single_term_and_scaling():
    s = l_space()
    c = FiniteCombination(((ExponentPair(Fraction(1, 3), 2), 1.0),))
    assert combination_norm_sq(s, c) == pytest.approx(1.0, abs=1e-12)
    z = 0.7 - 1.9j
    assert combination_norm_sq(s, c.scaled(z)) == pytest.approx(abs(z) ** 2, rel=1e-12)


def test_rectangle_loop_norm_vanishes(rectangle_points):
    s = l_space()
    coeffs = [1.0, -1.0, -1.0, 1.0]  # +- on opposite corners
    c = FiniteCombination(tuple(zip(rectangle_points.points, coeffs)))
    assert combination_norm_sq(s, c) == pytest.approx(0.0, abs=1e-12)


def test_alternating_staircase_norm_bounded(staircase_8):
    s = plus_space()
    coeffs = [(-1.0) ** i for i in range(len(staircase_8.vertices))]
    c = FiniteCombination(tuple(zip(staircase_8.vertices, coeffs)))
    v = combination_norm_sq(s, c)
    assert -1e-10 <= v <= 2 + 1e-10


def test_projection_coefficients(rectangle_points, staircase_8):
    coeffs = [1.0, -1.0, -1.0, 1.0]
    c = FiniteCombination(tuple(zip(rectangle_points.points, coeffs)))
    cols = projection_coefficients(c, "x")
    assert set(cols) == {Fraction(1), Fraction(3)}
    assert all(abs(v) < 1e-15 for v in cols.values())

    single = FiniteCombination(((ExponentPair("1/2", "-5/7"), 1.0),))
    assert projection_coefficients(single, "y") == {Fraction(-5, 7): 1.0 + 0j}

    alt = [(-1.0) ** i for i in range(8)]
    c = FiniteCombination(tuple(zip(staircase_8.vertices, alt)))
    rows = projection_coefficients(c, "y")
    first_y = staircase_8.vertices[0].b
    last_y = staircase_8.vertices[-1].b
    for key, v in rows.items():
        if key == first_y:
            assert v == pytest.approx(1.0)
        elif key == last_y:
            assert v == pytest.approx(-1.0)
        else:
            assert abs(v) < 1e-15


def test_combination_requires_distinct_pairs():
    p = ExponentPair(0, 0)
    with pytest.raises(MalformedInputError):
        FiniteCombination(((p, 1.0), (p, -1.0)))
    with pytest.raises(MalformedInputError):
        FiniteCombination(())


@pytest.mark.parametrize(
    "terms, error, message",
    [((), MalformedInputError, "combination needs at least one term"),
     (((ExponentPair(0, 0), 1), (ExponentPair("2/4", 0), 2), (ExponentPair("1/2", 0), 3)),
      MalformedInputError, "combination has duplicate exponent pairs"),
     # every coefficient is made complex before the checks run
     (((ExponentPair(0, 0), 1), (ExponentPair(0, 0), "x")), ValueError,
      "complex() arg is a malformed string")],
)
def test_combination_checks_and_their_messages(terms, error, message):
    with pytest.raises(error) as err:
        FiniteCombination(terms)
    assert type(err.value) is error and str(err.value) == message


def test_records_normalize_their_fields():
    c = FiniteCombination(((ExponentPair(0, 0), 1), (ExponentPair(1, 0), 0.5)))
    assert [type(z) for _, z in c.terms] == [complex, complex]
    f = PiecewisePolynomial((("-1/2", 0, (1, 2)), (0.25, "1/2", (3j,))))
    assert f.pieces == ((Fraction(-1, 2), Fraction(0), (1 + 0j, 2 + 0j)),
                        (Fraction(1, 4), Fraction(1, 2), (3j,)))
    assert {type(v) for l, r, _ in f.pieces for v in (l, r)} == {Fraction}
    # every piece is read before any is checked, so a later bad endpoint
    # is reported ahead of an earlier empty piece
    with pytest.raises(MalformedInputError) as err:
        PiecewisePolynomial((("1", "0", (1.0,)), ("x", "1", (1.0,))))
    assert str(err.value) == "not a rational: 'x'"
    with pytest.raises(MalformedInputError) as err:
        PiecewisePolynomial((("0", "1", ()), ("1", "1", (1.0,))))
    assert str(err.value) == "piece needs at least one coefficient"


def _numeric_axis_norm(measure, coeff_map):
    """Quadrature oracle for || sum_a d_a e_a ||^2 in L^2 of a 1-d measure."""
    total = 0.0
    for l, r, w in measure.pieces:
        dens = float(w) / float(r - l)

        def f(x):
            v = sum(d * np.exp(2j * np.pi * float(a) * x) for a, d in coeff_map.items())
            return abs(v) ** 2

        val, _ = quad(f, float(l), float(r), epsabs=1e-12, limit=400)
        total += dens * val
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_equals_projection_synthesis(seed):
    # ||f||^2 = (1/2)||column sums||^2_mu + (1/2)||row sums||^2_nu
    rng = np.random.default_rng(seed)
    s = t_space()
    pool = [
        ExponentPair(Fraction(n, 2), Fraction(m, 3))
        for n in range(-2, 3)
        for m in range(-2, 3)
    ]
    idx = rng.choice(len(pool), size=5, replace=False)
    terms = tuple(
        (pool[i], complex(rng.normal(), rng.normal())) for i in idx
    )
    c = FiniteCombination(terms)
    direct = combination_norm_sq(s, c)
    cols = projection_coefficients(c, "x")
    rows = projection_coefficients(c, "y")
    synth = 0.5 * _numeric_axis_norm(s.mu, cols) + 0.5 * _numeric_axis_norm(s.nu, rows)
    assert direct == pytest.approx(synth, rel=1e-9, abs=1e-10)


# ---------------------------------------------------------------------------
# Piecewise polynomials and quadrature.
# ---------------------------------------------------------------------------


def test_piecewise_zero_extension():
    f = PiecewisePolynomial((("-1/4", "1/4", (1.0,)),))
    x = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    vals = f(x)
    assert vals == pytest.approx([0, 1, 1, 1, 0])


@pytest.mark.parametrize(
    "piece, message",
    [(("1/2", "1/2", (1.0,)), "empty piece [1/2, 1/2]"),
     (("1", "0", (1.0,)), "empty piece [1, 0]"),
     (("0", "1", ()), "piece needs at least one coefficient")],
)
def test_piecewise_rejects_empty_pieces_and_coefficients(piece, message):
    with pytest.raises(MalformedInputError) as err:
        PiecewisePolynomial((piece,))
    assert str(err.value) == message


def _quad_integral(m, l, r, poly, freq):
    """Integral of poly(x) e^{2 pi i freq x} dm(x) over [l, r] by adaptive quadrature."""
    total = 0j
    for ml, mr, w in m.pieces:
        lo, hi = max(float(ml), l), min(float(mr), r)
        if lo < hi:
            dens = float(w) / float(mr - ml)
            re, _ = quad(poly, lo, hi, weight="cos", wvar=2 * math.pi * freq, epsabs=1e-14)
            im, _ = quad(poly, lo, hi, weight="sin", wvar=2 * math.pi * freq, epsabs=1e-14)
            total += dens * (re + 1j * im)
    return total


def test_measure_integral_against_quad(unit_measure):
    freqs = np.array([0.0, 1.5, -7.25, 31.0, -64.5, 133.0, -200.0, 200.0])
    two_piece = IntervalUnionMeasure.from_pieces([("-1", "0", "1/4"), ("1/2", "3/2", "3/4")])
    cases = [
        (unit_measure, 0.0, 1.0, (0.5, -1.0, 2.0)),  # 0.5 - x + 2x^2 on the whole support
        (two_piece, -0.5, 1.0, (1.0, 2.0, 0.0, -1.5)),  # 1 + 2x - 1.5x^3, part of each piece
    ]
    for m, l, r, coeffs in cases:
        f = PiecewisePolynomial(((Fraction(l), Fraction(r), coeffs),))
        poly = lambda x: sum(c * x**k for k, c in enumerate(coeffs))  # noqa: E731
        scalars = np.array([measure_integral(m, f, freq) for freq in freqs])
        for freq, got in zip(freqs, scalars):
            assert isinstance(got, complex)
            assert got == pytest.approx(_quad_integral(m, l, r, poly, freq), abs=1e-11)
        batched = measure_integral(m, f, freqs)
        assert batched.shape == freqs.shape
        assert np.max(np.abs(batched - scalars)) < 1e-13


# rational endpoints with large denominators, shifted by offsets up to 1e6
cut_points = st.fractions(min_value=0, max_value=3, max_denominator=10**9)
offsets = st.one_of(st.sampled_from([0, -1, 999_999, -1_000_000]), st.integers(-10**6, 10**6))
# parts of at least 1e-100, or 0, keep every value clear of the subnormal range
coefficient_parts = st.floats(min_value=-1, max_value=1).filter(lambda x: x == 0 or abs(x) >= 1e-100)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.builds(complex, coefficient_parts, coefficient_parts), min_size=1, max_size=7),
    cuts=st.lists(cut_points, min_size=2, max_size=4, unique=True),
    span=st.lists(cut_points, min_size=2, max_size=2, unique=True),
    offset=offsets,
    far=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=3),
    rational=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
)
def test_measure_integral_matches_mpmath_reference(
    mp_integral, coeffs, cuts, span, offset, far, rational
):
    # degrees 0-6 on one function piece against a measure of 1-3 pieces, at
    # f = 0, far float and rational frequencies, and omega = 2 pi f half just
    # below and above each switch k + 1 between the series and the recurrence
    cuts = sorted(cuts)
    m = IntervalUnionMeasure(tuple(
        (offset + l, offset + r, Fraction(1, len(cuts) - 1)) for l, r in zip(cuts, cuts[1:])
    ))
    lo, hi = sorted(span)
    fn = PiecewisePolynomial(((offset + lo, offset + hi, tuple(coeffs)),))
    half = float(hi - lo) / 2
    freqs = [0.0, 1e-7, rational, *far] + [
        (k + 1) * (1 + side * 1e-9) / (2 * math.pi * half)
        for k in range(len(coeffs)) for side in (-1, 1)
    ]
    got = measure_integral(m, fn, freqs)
    # the conditioning of the integral: dens * length * sum |c_k| |x|^k on each overlap
    bound = 0.0
    for ml, mr, w in m.pieces:
        a, b = max(ml, fn.pieces[0][0]), min(mr, fn.pieces[0][1])
        if a < b:
            x = float(max(abs(a), abs(b)))
            size = sum(abs(c) * x**k for k, c in enumerate(coeffs))
            bound += float(w * (b - a) / (mr - ml)) * size
    for f, value in zip(freqs, got):
        want = complex(mp_integral(m, fn, f))
        assert abs(value - want) <= 1e-14 * bound, (f, value, want, bound)


def test_measure_integral_takes_exact_frequencies(mp_integral):
    # a scalar and a batch of one give one value; a Fraction with a large
    # denominator far out keeps its exact phase
    m = IntervalUnionMeasure.unit_interval(999_999)
    fn = PiecewisePolynomial(((Fraction(999_999), Fraction(1_000_000), (0.5, -1.0, 0.25)),))
    f = Fraction(123_456_789_012, 1_000_003)
    as_fraction_value = measure_integral(m, fn, f)
    batch = measure_integral(m, fn, [f])
    assert batch.shape == (1,) and batch[0] == as_fraction_value
    with mpmath.workdps(40):
        want = complex(mp_integral(m, fn, f))
        scale = float(abs(mp_integral(m, fn, 0)))
    assert abs(as_fraction_value - want) <= 1e-15 * scale
    ints = measure_integral(m, fn, np.arange(-3, 4))
    assert ints[3] == measure_integral(m, fn, 0) == measure_integral(m, fn, 0.0)
    with pytest.raises(MalformedInputError):
        measure_integral(m, fn, [1.0, float("nan")])


def test_measure_integral_mixed_sign_numerators_past_int64(mp_integral):
    # numpy alone would turn the first list into float64, which rounds
    # 10**19 + 1 and flips the sign of its phase; relative errors show it,
    # since the integral is about 1e-19 at these frequencies.  Each list is
    # taken as ints and as thirds of them.
    m = IntervalUnionMeasure.from_pieces([("1/3", "4/3", "1/2"), ("2", "7/2", "1/2")])
    fn = PiecewisePolynomial(((Fraction(1, 2), Fraction(3), (1.0, -0.5j, 0.25)),))
    lines = ([-1, 10**19 + 1, 2**63, 0], [-(10**19 + 1), 2**63 + 3, -(2**64) - 7])
    for ints in lines:
        for freqs in (ints, [Fraction(f, 3) for f in ints]):
            got = measure_integral(m, fn, freqs)
            for f, value in zip(freqs, got):
                with mpmath.workdps(40):
                    want = complex(mp_integral(m, fn, f))
                assert abs(value - want) <= 1e-14 * abs(want), (f, value, want)


def test_measure_norm_sq_exact(unit_measure):
    # int_0^1 x^2 dx = 1/3
    f = PiecewisePolynomial.monomial(support_intervals(unit_measure), 1)
    assert measure_norm_sq(unit_measure, f) == pytest.approx(1 / 3, rel=1e-13)
