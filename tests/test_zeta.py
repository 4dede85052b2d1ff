"""Numeric and exact routes for the zeta-type function.

Random numeric queries are drawn so that the reduced argument
y = (x + beta) / (alpha + beta) sits in a band where the series route
converges comfortably at 128 bits; the quadrature route has no such
restriction and is additionally exercised at a small-argument point.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from polybernoulli import (
    NonConvergenceError,
    NumericResult,
    Params,
    ZetaQuery,
    difference_exact,
    difference_series,
    gpb_explicit,
    hurwitz_zeta,
    polylog_on_kernel,
    raabe_numeric,
    raabe_poly,
    xi_exact_neg,
    xi_quadrature,
    xi_reduced,
    xi_series,
)

from conftest import rand_params, rand_rat

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
    # zeta(k-j)/j! shrink only like (2 pi)^-j.
    for wp in (184, 312):
        for k in (2, 3):
            for v_text in ("0.6932", "1.0", "2.5", "40"):
                with mp.workprec(wp):
                    got = polylog_on_kernel(k, mp.mpf(v_text))
                with mp.workprec(wp + 400):
                    ref = mpmath.polylog(k, -mp.expm1(-mp.mpf(v_text)))
                    assert abs(got - ref) < abs(ref) * mp.ldexp(1, -(wp - 8)), (wp, k, v_text)


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
