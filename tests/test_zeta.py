"""Numeric and exact routes for the zeta-type function.

Random numeric queries are drawn so that the reduced argument
y = (x + beta) / (alpha + beta) sits in a band where the series route
converges comfortably at 128 bits; the quadrature route has no such
restriction and is additionally exercised at a small-argument point.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import mpf_ln2, round_ceiling, round_floor

from polybernoulli import (
    NonConvergenceError,
    NumericResult,
    Params,
    ZetaQuery,
    core,
    difference_exact,
    difference_series,
    gpb_explicit,
    hurwitz_zeta,
    pb_number,
    polylog_on_kernel,
    raabe_numeric,
    raabe_poly,
    xi_exact_neg,
    xi_quadrature,
    xi_reduced,
    xi_series,
)

from polybernoulli.zeta import (
    GUARD_BITS,
    _difference_series_sum,
    _gf_coefficients,
    _polylog_ratio,
    _quadrature_kernel,
)

from conftest import literal_shifted_sum, rand_params, rand_rat

CLASSICAL = Params(Fraction(1), Fraction(0))


def seeded_query(rng, precision=96):
    k = rng.randint(1, 3)
    s = Fraction(rng.randint(1, 8), 2)
    params = Params(Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4))
    y = Fraction(rng.randint(72, 140), 4)
    return ZetaQuery(
        k=k, s=s, x=y * params.log_sum - params.beta, params=params, precision=precision
    )


# -------------------------------------------------------------- Hurwitz zeta


def test_hurwitz_zeta_against_mpmath():
    rng = random.Random(601)
    for _ in range(10):
        s = Fraction(rng.randint(-6, 12), rng.choice([1, 2, 4]))
        if s == 1:
            continue
        a = Fraction(rng.randint(1, 40), rng.choice([1, 2, 4]))
        p = rng.choice([64, 96, 128])
        value, err = hurwitz_zeta(s, a, p)
        with mp.workprec(p + 40):
            ref = mpmath.zeta(mp.mpf(s.numerator) / s.denominator,
                              mp.mpf(a.numerator) / a.denominator)
            assert abs(value - ref) <= err + abs(ref) * mp.ldexp(1, -p + 2), (s, a, p)


def test_hurwitz_zeta_basel():
    value, err = hurwitz_zeta(Fraction(2), Fraction(1), 128)
    with mp.workprec(180):
        assert abs(value - mp.pi**2 / 6) < mp.ldexp(1, -126)
    assert err < mp.ldexp(1, -130)


def test_hurwitz_zeta_validation():
    with pytest.raises(ValueError):
        hurwitz_zeta(Fraction(1), Fraction(2), 64)
    with pytest.raises(ValueError):
        hurwitz_zeta(Fraction(2), Fraction(0), 64)


# ------------------------------------------------------------- polylogarithm


def test_polylog_on_kernel_k1_is_exact():
    with mp.workprec(120):
        for v in ("0.125", "0.7", "3", "80"):
            assert polylog_on_kernel(1, mp.mpf(v)) == mp.mpf(v)
        assert polylog_on_kernel(2, mp.mpf(0)) == 0


def test_polylog_on_kernel_matches_reference():
    # references computed far above working precision so that 1 - e^(-v)
    # itself is not the weak link
    cases = [(2, "0.25"), (2, "0.69"), (2, "0.72"), (3, "1.5"), (4, "7"), (2, "40"), (3, "80")]
    for k, v_text in cases:
        with mp.workprec(96):
            got = polylog_on_kernel(k, mp.mpf(v_text))
        with mp.workprec(700):
            z = -mp.expm1(-mp.mpf(v_text))
            ref = mpmath.polylog(k, z)
            assert abs(got - ref) < abs(ref) * mp.ldexp(1, -88), (k, v_text)
    # The expansion around z = 1 must reach the working precision, including
    # v just above ln 2, where |mu| = |ln z| is largest and the coefficients
    # zeta(k-j)/j! shrink only like (2 pi)^-j.  Below ln 2 the generating
    # function sum_n B_n^(k) v^n/n! must keep its relative accuracy:
    # near_zero in xi_quadrature calls it far below 2^-100.  ln 2 rounded
    # down and up at wp bits sit on either side of the switch between sums.
    for wp in (96, 184, 312):
        ln2_down = mp.make_mpf(mpf_ln2(wp, round_floor))
        ln2_up = mp.make_mpf(mpf_ln2(wp, round_ceiling))
        for k in (2, 3, 5):
            for v_text in ("1e-300", "1e-60", "1e-12", "1e-3", "0.3", "0.6931", ln2_down,
                           ln2_up, "0.6932", "1.0", "2.5", "40", "200"):
                with mp.workprec(wp):
                    got = polylog_on_kernel(k, mp.mpf(v_text))
                    assert mp.prec == wp
                with mp.workprec(wp + 400):
                    ref = mpmath.polylog(k, -mp.expm1(-mp.mpf(v_text)))
                    assert abs(got - ref) < abs(ref) * mp.ldexp(1, -(wp - 8)), (wp, k, v_text)


def test_polylog_ratio_within_four_units():
    # _polylog_ratio's contract: R_k = Li_k(z)/z within 4 units of 2^-wp on
    # both sums and across the switch between them at ln 2.
    for wp in (96, 184, 312, 332):
        ln2_down = mp.make_mpf(mpf_ln2(wp, round_floor))
        ln2_up = mp.make_mpf(mpf_ln2(wp, round_ceiling))
        for k in (2, 3, 5):
            for v_text in ("1e-300", "1e-12", "0.01", "0.3", "0.6", "0.6931", ln2_down,
                           ln2_up, "0.6932", "1.5", "5", "40", "200"):
                with mp.workprec(wp):
                    v = mp.mpf(v_text)
                got = _polylog_ratio(k, v, wp)
                with mp.workprec(wp + 400):
                    z = -mp.expm1(-v)
                    units = abs(got - mpmath.polylog(k, z) / z) * mp.ldexp(1, wp)
                    assert units <= 4, (wp, k, v_text, units)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    k=st.integers(2, 6),
    log_v=st.floats(math.log(1e-40), math.log(60)),
    wp=st.integers(64, 320),
)
def test_polylog_on_kernel_property(k, log_v, wp):
    # v spans [1e-40, 60] on a log scale and carries wp bits.
    with mp.workprec(wp):
        v = mp.exp(log_v)
        got = polylog_on_kernel(k, v)
    with mp.workprec(wp + 400):
        ref = mpmath.polylog(k, -mp.expm1(-v))
        assert abs(got - ref) < abs(ref) * mp.ldexp(1, -(wp - 8)), (k, v, wp)


def test_gf_coefficients_are_kaneko_numbers():
    # R_k(v) = Li_k(1 - e^(-v))/(1 - e^(-v)) = sum_n B_n^(k) v^n/n!: the list
    # holds the exact coefficients floored at scale 2^(wp+24), |c_n| <= 1,
    # and every coefficient past its end is negligible for v <= ln 2.
    grid = [(k, wp) for k in (2, 3, 5) for wp in (96, 204, 332)] + [(64, 204)]
    for k, wp in grid:
        coeffs = _gf_coefficients(k, wp)
        exact = [pb_number(n, k) / math.factorial(n) for n in range(len(coeffs) + 50)]
        floors = [math.floor(c * 2 ** (wp + 24)) for c in exact[: len(coeffs)]]
        assert list(coeffs) == floors
        assert all(abs(c) <= 1 for c in exact)
        with mp.workprec(wp + 64):
            for n in range(len(coeffs), len(coeffs) + 50):
                c = mp.mpf(exact[n].numerator) / exact[n].denominator
                assert abs(c) * mp.ln2**n < mp.ldexp(1, -(wp + 4)), (k, wp, n)
    # So no sum below ln 2 at 332 bits takes more than 110 terms.
    assert len(_gf_coefficients(2, 332)) <= 110


def test_polylog_on_kernel_small_v_direct_series():
    with mp.workprec(90):
        v = mp.mpf("0.01")
        z = -mp.expm1(-v)
        direct = sum(z**n / mp.mpf(n) ** 3 for n in range(1, 60))
        assert abs(polylog_on_kernel(3, v) - direct) < mp.ldexp(1, -80)


def test_polylog_on_kernel_validation():
    with pytest.raises(ValueError):
        polylog_on_kernel(0, mp.mpf(1))
    with pytest.raises(ValueError):
        polylog_on_kernel(2, mp.mpf(-1))


# ------------------------------------------------------- exact entry points


def test_interpolation_at_negative_integers():
    rng = random.Random(602)
    for _ in range(5):
        params = rand_params(rng)
        x = rand_rat(rng, -5, 5, 4)
        for n in range(9):
            for k in range(-3, 5):
                got = xi_exact_neg(k, n, params, x)
                want = (-1) ** n * gpb_explicit(n, k, params).poly(-x)
                assert got == want, (n, k)


def test_xi_exact_neg_matches_literal_sum_and_rows():
    # The weight-row sum against the literal truncated series and against
    # the polynomial rows, over k of both signs, beta = 0 and negative L; the
    # sum reads no row of core's number cache.
    LARGE = Params(Fraction(10**6, 7), Fraction(1, 999999))
    param_sets = [
        Params(Fraction(1, 2), Fraction(1, 3)),
        LARGE,
        Params(Fraction(5, 3), Fraction(0)),
        Params(Fraction(-3, 2), Fraction(5, 7)),
    ]
    rows_before = dict(core._PB_ROWS)
    for params in param_sets:
        for x in (Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(10**6, 7)):
            for k in (-64, -7, 0, 1, 2, 64):
                for n in (0, 1, 2, 3, 5, 8, 13, 17):
                    got = xi_exact_neg(k, n, params, x)
                    assert got == literal_shifted_sum(k, params, x, n, 0, n), (params, x, k, n)
    assert core._PB_ROWS == rows_before
    x = Fraction(1, 2)
    got = xi_exact_neg(64, 64, LARGE, x)
    assert core._PB_ROWS == rows_before
    assert got == literal_shifted_sum(64, LARGE, x, 64, 0, 64)
    assert got == gpb_explicit(64, 64, LARGE).poly(-x)


def test_exact_identities_match_literal_sum():
    # difference_exact and the right side of raabe_poly read the weight row
    # one column on; the literal truncated series holds both, over k of both
    # signs, beta = 0, negative L and the large parameters.
    param_sets = [
        Params(Fraction(1, 2), Fraction(1, 3)),
        Params(Fraction(10**6, 7), Fraction(1, 999999)),
        Params(Fraction(5, 3), Fraction(0)),
        Params(Fraction(-3, 2), Fraction(5, 7)),
    ]
    for params in param_sets:
        for x in (Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(10**6, 7)):
            for k in (-7, -1, 0, 1, 2, 9):
                for n in (0, 1, 2, 5, 12):
                    case = (params, x, k, n)
                    want = -literal_shifted_sum(k, params, x, n - 1, 1, n)
                    assert difference_exact(k, n, params, x) == want, case
                    _lhs, rhs = raabe_poly(n, k, params, x)
                    want = literal_shifted_sum(k, params, -x, n, 1, n + 1) / (n + 1)
                    assert rhs == (-1) ** (n + 1) * want, case


def test_difference_exact_matches_two_evaluations():
    rng = random.Random(603)
    for _ in range(6):
        params = rand_params(rng)
        x = rand_rat(rng, -5, 5, 4)
        L = params.log_sum
        for n in range(7):
            for k in (-2, 1, 3):
                lhs = difference_exact(k, n, params, x)
                rhs = xi_exact_neg(k, n, params, x + L) - xi_exact_neg(k, n, params, x)
                assert lhs == rhs, (n, k)


def test_raabe_poly_sides_agree():
    rng = random.Random(604)
    for _ in range(5):
        params = rand_params(rng)
        x = rand_rat(rng, -5, 5, 4)
        for n in range(7):
            for k in range(-3, 4):
                lhs, rhs = raabe_poly(n, k, params, x)
                assert lhs == rhs, (n, k)
    with pytest.raises(ValueError):
        raabe_poly(-1, 2, CLASSICAL, Fraction(0))


# ------------------------------------------------------------ numeric routes


def test_three_routes_agree_at_128_bits():
    rng = random.Random(605)
    for _ in range(3):
        q = seeded_query(rng, precision=128)
        a = xi_series(q)
        b = xi_reduced(q)
        c = xi_quadrature(q)
        with mp.workprec(160):
            tol = abs(a.value) * mp.mpf("1e-10")
            assert abs(a.value - b.value) <= tol
            assert abs(a.value - c.value) <= tol
            assert abs(b.value - c.value) <= tol


def test_k1_chain_matches_hurwitz():
    rng = random.Random(606)
    for _ in range(3):
        q0 = seeded_query(rng, precision=128)
        q = ZetaQuery(k=1, s=q0.s, x=q0.x, params=q0.params, precision=128)
        res = xi_series(q)
        y = (q.x + q.params.beta) / q.params.log_sum
        hz, _ = hurwitz_zeta(q.s + 1, y, 150)
        with mp.workprec(170):
            L = mp.mpf(q.params.log_sum.numerator) / q.params.log_sum.denominator
            s_m = mp.mpf(q.s.numerator) / q.s.denominator
            ref = L ** (-s_m) * s_m * hz
            assert abs(res.value - ref) <= abs(ref) * mp.mpf("1e-12")


def test_quadrature_small_argument_against_hurwitz():
    # Outside the series comfort zone entirely: k=1, s=3, x=2, alpha=beta=1/2,
    # where the chain gives L^(-s) s zeta(s+1, (x+beta)/L) with L=1, y=5/2.
    q = ZetaQuery(
        k=1, s=Fraction(3), x=Fraction(2),
        params=Params(Fraction(1, 2), Fraction(1, 2)), precision=96,
    )
    res = xi_quadrature(q)
    hz, _ = hurwitz_zeta(Fraction(4), Fraction(5, 2), 128)
    with mp.workprec(140):
        ref = 3 * hz
        assert abs(res.value - ref) <= abs(ref) * mp.mpf("1e-12")


# (k, s, x, alpha, beta, precision, terms) of three series requests of the
# benchmark's zeta workload; the 128-bit one restarts twice.
SERIES_PINNED = [
    (2, "3/2", "30", "1", "1/2", 64, 50),
    (2, "3/2", "30", "1", "1/2", 128, 410),
    (3, "1/2", "45", "1/4", "3/4", 64, 23),
]


def pinned_query(k, s, x, alpha, beta, precision):
    return ZetaQuery(k=k, s=Fraction(s), x=Fraction(x),
                     params=Params(Fraction(alpha), Fraction(beta)), precision=precision)


@pytest.mark.parametrize("shift", [0, 1])
def test_difference_series_sum_within_error_of_literal_sum(shift):
    # The engine at y = (x+beta)/L with the series route's stop, 2^-(p+8) L^s
    # on terms in y, against the same number of outer terms, each inner sum
    # taken literally with binomial weights, at a precision that covers its
    # cancellation of up to n + shift bits and the engine's guard bits with
    # 64 to spare.  At shift 0 the term counts are pinned, so any drift of
    # the stopping rule fails.  The terms in y are L^s times the series
    # route's, so the absolute bounds are the same or, for L > 1, sharper.
    for *args, terms in SERIES_PINNED:
        q = pinned_query(*args)
        L = q.params.log_sum
        y = (q.x + q.params.beta) / L
        with mp.workprec(q.precision + GUARD_BITS + 16):
            L_s = (mp.mpf(L.numerator) / L.denominator) ** (mp.mpf(q.s.numerator) / q.s.denominator)
            threshold = mp.ldexp(1, -(q.precision + 8)) * L_s
        res = _difference_series_sum(q.k, q.s, y, q.precision, q.max_terms, shift, threshold)
        if shift == 0:
            assert res.terms == terms, args
        d_top = res.terms - 1 + shift
        with mp.workprec(q.precision + GUARD_BITS + 24 + d_top + 64):
            neg_s = -mp.mpf(q.s.numerator) / q.s.denominator
            bases = (y + j for j in range(d_top + 1))
            f = [(mp.mpf(base.numerator) / base.denominator) ** neg_s for base in bases]
            literal = mp.mpf(0)
            for m in range(res.terms):
                d = m + shift
                inner = mp.fsum((-1) ** j * math.comb(d, j) * f[j] for j in range(d + 1))
                literal += inner / mp.mpf(m + 1) ** q.k
            assert abs(res.value - literal) <= res.error, (args, shift)
            # The engine sizes its rounding below the guard bits; only the
            # tail fit may take the reported error above that.
            assert abs(res.value - literal) <= mp.ldexp(1, -(q.precision + GUARD_BITS))


# (s, x, alpha, beta, precision) of quadrature requests: the benchmark's
# x = 30 and small-x queries, plus beta = 0, where the denominator is z.
KERNEL_QUERIES = [
    ("3/2", "30", "1", "1/2", 64),
    ("5/2", "1/10", "1", "1/2", 256),
    ("1/2", "40", "1/2", "1/2", 128),
    ("3", "2", "1", "0", 96),
]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadrature_kernel_matches_literal_integrand(k):
    # The kernel R_k(Lt) exp((s-1) ln t - (x+beta) t) against the integrand
    # as defined, Li_k(1 - e^(-Lt)) e^(-xt) t^(s-1) / (e^(beta t) - e^(-alpha t)),
    # 64 bits sharper, at the precision xi_quadrature runs the kernel at, from
    # t = 1e-80 through 1/(x+beta), 1 and the cutoff T.
    for s, x, alpha, beta, p in KERNEL_QUERIES:
        q = pinned_query(k, s, x, alpha, beta, p)
        kp = p + GUARD_BITS + 24 + 20
        kernel = _quadrature_kernel(q, kp)
        with mp.workprec(kp):
            ts = [mp.mpf(v) for v in ("1e-80", "1e-20", "1e-3")]
            ts += [1 / mp.convert(q.x + q.params.beta), mp.mpf(1)]
            ts.append(max(mp.mpf(2), (p + 32) * mp.log(2) / mp.convert(q.x)))
        for t in ts:
            with mp.workprec(kp):
                got = kernel(t)
                assert mp.prec == kp
            with mp.workprec(kp + 64):
                x_m, a_m, b_m, s_m = (mp.mpf(v.numerator) / v.denominator
                                      for v in (q.x, q.params.alpha, q.params.beta, q.s))
                den = mp.expm1(b_m * t) - mp.expm1(-a_m * t)
                ref = polylog_on_kernel(k, (a_m + b_m) * t) / den * mp.exp(-x_m * t) * t ** (s_m - 1)
                assert abs(got - ref) <= abs(ref) * mp.ldexp(1, -(kp - 8)), (k, s, x, beta, t)


def test_difference_series_matches_two_evaluations():
    rng = random.Random(607)
    q = seeded_query(rng, precision=80)
    d = difference_series(q)
    shifted = ZetaQuery(
        k=q.k, s=q.s, x=q.x + q.params.log_sum, params=q.params, precision=q.precision
    )
    direct = xi_series(shifted).value - xi_series(q).value
    with mp.workprec(120):
        assert abs(d.value - direct) <= d.error + mp.ldexp(1, -q.precision + 8)


def test_raabe_numeric_sides_agree():
    rng = random.Random(608)
    q0 = seeded_query(rng, precision=48)
    s = q0.s if q0.s > 1 else q0.s + Fraction(3, 2)
    q = ZetaQuery(k=q0.k, s=s, x=q0.x, params=q0.params, precision=48)
    lhs, rhs = raabe_numeric(q)
    with mp.workprec(96):
        assert abs(lhs.value - rhs.value) <= (lhs.error + rhs.error) * 4 + mp.ldexp(1, -40)
    with pytest.raises(ValueError):
        raabe_numeric(ZetaQuery(k=1, s=Fraction(1, 2), x=q.x, params=q.params, precision=48))


def test_error_estimates_cover_sharper_rerun():
    rng = random.Random(609)
    q = seeded_query(rng, precision=64)
    res = xi_series(q)
    sharper = xi_series(
        ZetaQuery(k=q.k, s=q.s, x=q.x, params=q.params, precision=q.precision + 48)
    )
    with mp.workprec(140):
        assert abs(res.value - sharper.value) <= res.error + sharper.error
        assert sharper.error <= res.error


def test_reduced_and_quadrature_errors_cover_sharper_rerun():
    def sharper(q):
        return ZetaQuery(k=q.k, s=q.s, x=q.x, params=q.params, precision=q.precision + 48)

    rng = random.Random(612)
    for _ in range(3):
        q = seeded_query(rng, precision=96)
        for route in (xi_reduced, xi_quadrature):
            res, ref = route(q), route(sharper(q))
            with mp.workprec(200):
                assert abs(res.value - ref.value) <= res.error, (route.__name__, q)
    # At 256 bits the polylogarithm expansion must reach the working
    # precision; the reduced route is left out here, since its series does
    # not meet the stopping rule within 4096 terms at this query.
    q = ZetaQuery(k=2, s=Fraction(3, 2), x=Fraction(30),
                  params=Params(Fraction(1), Fraction(1, 2)), precision=256)
    res, ref = xi_quadrature(q), xi_quadrature(sharper(q))
    with mp.workprec(360):
        assert abs(res.value - ref.value) <= res.error
    # Small x: the kernel's mass lies far out, up to the cutoff T ~ 670.
    q = ZetaQuery(k=3, s=Fraction(5, 2), x=Fraction(1, 10),
                  params=Params(Fraction(1), Fraction(1, 2)), precision=64)
    res, ref = xi_quadrature(q), xi_quadrature(sharper(q))
    with mp.workprec(200):
        assert abs(res.value - ref.value) <= res.error


def test_results_carry_term_counts():
    rng = random.Random(610)
    q = seeded_query(rng, precision=64)
    res = xi_series(q)
    assert isinstance(res, NumericResult)
    assert res.terms > 0
    assert res.error > 0


def test_non_convergence_is_reported():
    rng = random.Random(611)
    q0 = seeded_query(rng, precision=96)
    q = ZetaQuery(k=q0.k, s=q0.s, x=q0.x, params=q0.params, precision=96, max_terms=5)
    with pytest.raises(NonConvergenceError) as exc:
        xi_series(q)
    assert exc.value.terms == 5


def test_query_validation():
    with pytest.raises(ValueError):
        ZetaQuery(k=1, s=Fraction(2), x=Fraction(10), params=CLASSICAL, precision=0)
    with pytest.raises(ValueError):
        ZetaQuery(k=1, s=Fraction(2), x=Fraction(10), params=CLASSICAL, precision=8192)
    with pytest.raises(ValueError):
        ZetaQuery(k=1, s=Fraction(2), x=Fraction(10), params=CLASSICAL, max_terms=0)
    good = Params(Fraction(1), Fraction(1, 2))
    # numeric-mode constraints surface on use, not construction
    for bad in (
        ZetaQuery(k=0, s=Fraction(2), x=Fraction(10), params=good),
        ZetaQuery(k=1, s=Fraction(0), x=Fraction(10), params=good),
        ZetaQuery(k=1, s=Fraction(2), x=Fraction(-1), params=good),
        ZetaQuery(k=1, s=Fraction(2), x=Fraction(10), params=Params(-1, 2)),
    ):
        with pytest.raises(ValueError):
            xi_reduced(bad)
    # the direct series additionally needs beta > 0
    with pytest.raises(ValueError):
        xi_series(ZetaQuery(k=1, s=Fraction(2), x=Fraction(10), params=CLASSICAL))
