"""Acceptance gate: twelve criteria, one test (and one pytest report line) per
criterion.  Each test re-states its grid, tolerance, and runtime budget, and
asserts all three.  Run with -v to get the per-criterion pass/fail lines, or
with -s to also see the printed detail for passing criteria.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from mpmath import mp

from polybernoulli import (
    Params,
    Poly1,
    Poly2,
    ZetaQuery,
    addition_formula,
    appell_derivative,
    binomial,
    gpb_explicit,
    hurwitz_zeta,
    lonesum_count,
    multiplication_theorem,
    pb_number_neg_closed,
    power_sum,
    raabe_poly,
    recurrence_I,
    recurrence_II,
    scale_from_classical,
    stirling2,
    sym_closed,
    sym_def,
    sym_gf_oracle,
    xi_exact_neg,
    xi_quadrature,
    xi_reduced,
    xi_series,
)
from polybernoulli.polyseries import gf_kernel, polylog_neg_rational, polylog_series

from conftest import literal_double_sum, rand_params, rand_rat

CLASSICAL = Params(Fraction(1), Fraction(0))


class budget:
    """Context manager asserting the wall-clock budget of a criterion."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds}s budget: {self.elapsed:.2f}s"
            )
        return False


def report(label, detail, b):
    print(f"{label}: {detail} ... PASS ({b.elapsed:.2f}s)")


def test_criterion_01_explicit_formula_equals_scaling():
    """Explicit formula == scaled classical polynomial == literal double
    sum, exact, n<=8, -3<=k<=4, 5 seeded params; < 5 s."""
    rng = random.Random(1001)
    with budget(5) as b:
        checked = 0
        for _ in range(5):
            params = rand_params(rng)
            for n in range(9):
                for k in range(-3, 5):
                    explicit = gpb_explicit(n, k, params).poly
                    assert explicit == scale_from_classical(n, k, params).poly, (n, k, params)
                    assert explicit == literal_double_sum(n, k, params), (n, k, params)
                    checked += 1
    report("criterion 1", f"{checked} exact polynomial equalities", b)


def test_criterion_02_both_recurrences_match_explicit():
    """recurrence_II on the full grid and recurrence_I (resolved variant:
    'derived', exponent m-l on -alpha; the printed m+l reading fails once
    |alpha| != 1) for k>=1; exact; < 10 s."""
    rng = random.Random(1002)
    with budget(10) as b:
        for _ in range(5):
            params = rand_params(rng)
            for n in range(9):
                for k in range(-3, 5):
                    assert recurrence_II(n, k, params).poly == gpb_explicit(n, k, params).poly
                for k in range(1, 5):
                    assert (
                        recurrence_I(n, k, params, variant="derived").poly
                        == gpb_explicit(n, k, params).poly
                    )
    report(
        "criterion 2",
        "recurrence II on full grid; recurrence I (derived variant, k>=1)",
        b,
    )


def test_criterion_03_negative_index_closed_form_vs_lonesum():
    """Closed double-Stirling form == brute-force lonesum enumeration for all
    n*k <= 12, landmarks 2 and 14 included; exact; < 30 s."""
    with budget(30) as b:
        assert pb_number_neg_closed(1, 1) == 2
        assert pb_number_neg_closed(2, 2) == 14
        pairs = 0
        for n in range(13):
            for k in range(13):
                if n * k <= 12:
                    assert pb_number_neg_closed(n, k) == lonesum_count(n, k), (n, k)
                    pairs += 1
    report("criterion 3", f"{pairs} (n,k) pairs against the matrix enumeration", b)


def test_criterion_04_duality_numbers_and_polynomials():
    """B_n^(-k) = B_k^(-n) for n,k <= 8; bivariate C_n^(-m)(x,y) =
    C_m^(-n)(y,x) exactly for n,m <= 6 on 3 seeded params; < 10 s."""
    rng = random.Random(1004)
    with budget(10) as b:
        for n in range(9):
            for k in range(9):
                assert pb_number_neg_closed(n, k) == pb_number_neg_closed(k, n)
        for _ in range(3):
            params = rand_params(rng)
            for n in range(7):
                for m in range(7):
                    assert sym_def(n, m, params) == sym_def(m, n, params).swap_vars()
    report("criterion 4", "number duality 9x9; polynomial duality 7x7 on 3 params", b)


def test_criterion_05_generating_function_oracles():
    """(i) gf_kernel coefficients n<=8 == explicit values; (ii) sym_gf_oracle
    n+m<=6 == sym_def; (iii) classical x=y=0 slice == B_n^(-k) for n+k <= 8;
    exact; < 30 s."""
    rng = random.Random(1005)
    with budget(30) as b:
        for _ in range(2):
            params = rand_params(rng)
            x = rand_rat(rng, -4, 4, 3)
            for k in range(-2, 4):
                ker = gf_kernel(k, params.alpha, params.beta, x, 8)
                for n in range(9):
                    assert ker.coefficient(n) * factorial(n) == gpb_explicit(
                        n, k, params
                    ).poly(x)
        for _ in range(2):
            params = rand_params(rng)
            grid = sym_gf_oracle(params, 6, 6)
            for n in range(7):
                for m in range(7 - n):
                    got = grid.coefficient(n, m) * (factorial(n) * factorial(m))
                    assert got == sym_def(n, m, params), (n, m)
        for n in range(9):
            for k in range(9 - n):
                assert sym_def(n, k, CLASSICAL)(0, 0) == pb_number_neg_closed(n, k)
    report("criterion 5", "univariate kernel, bivariate kernel, classical slice", b)


def test_criterion_06_symmetrized_closed_form_reading():
    """Closed double-Stirling form == defining sum for n,m <= 5.  Reading
    statement: the SECOND factor anchors at (y+alpha)/L, the same
    normalization as the first factor's (x+alpha)/L (the y-reading); the
    alternative (y-beta)/L reading fails.  Exact; < 10 s."""
    rng = random.Random(1006)
    with budget(10) as b:
        for _ in range(3):
            params = rand_params(rng)
            for n in range(6):
                for m in range(6):
                    assert sym_closed(n, m, params) == sym_def(n, m, params), (n, m)
        # substantiate the reading statement: rebuild the closed form with the
        # second factor anchored at (y-beta)/L instead and watch it fail
        params = Params(Fraction(3, 2), Fraction(1, 2))
        L = params.log_sum
        x_anchor = Poly1((params.alpha / L, Fraction(1) / L))
        y_wrong = Poly1((-params.beta / L, Fraction(1) / L))
        n, m = 2, 2
        wrong = Poly2()
        for j in range(min(n, m) + 1):
            fx = Poly1()
            for p in range(n + 1):
                fx = fx + (binomial(n, p) * stirling2(p, j)) * x_anchor ** (n - p)
            fy = Poly1()
            for l in range(m + 1):
                fy = fy + (binomial(m, l) * stirling2(l, j)) * y_wrong ** (m - l)
            wrong = wrong + (factorial(j) ** 2) * Poly2.from_x(fx) * Poly2.from_y(fy)
        assert wrong != sym_def(n, m, params)
    report(
        "criterion 6",
        "closed form passed under the y-reading ((y+alpha)/L anchor); "
        "the (y-beta)/L reading fails",
        b,
    )


def test_criterion_07_interpolation_at_nonpositive_integers():
    """xi_exact_neg(k,n,params,x) == (-1)^n B_n^(k)(-x) exactly for n <= 8,
    -3 <= k <= 4; < 5 s."""
    rng = random.Random(1007)
    with budget(5) as b:
        for _ in range(3):
            params = rand_params(rng)
            x = rand_rat(rng, -5, 5, 4)
            for n in range(9):
                for k in range(-3, 5):
                    want = (-1) ** n * gpb_explicit(n, k, params).poly(-x)
                    assert xi_exact_neg(k, n, params, x) == want, (n, k)
    report("criterion 7", "series truncation at s=-n reproduces the polynomials", b)


def test_criterion_08_polynomial_mean_value_identity():
    """raabe_poly returns an exactly equal pair for n <= 6, -3 <= k <= 3,
    seeded params and x; < 10 s."""
    rng = random.Random(1008)
    with budget(10) as b:
        for _ in range(4):
            params = rand_params(rng)
            x = rand_rat(rng, -5, 5, 4)
            for n in range(7):
                for k in range(-3, 4):
                    lhs, rhs = raabe_poly(n, k, params, x)
                    assert lhs == rhs, (n, k, params, x)
    report("criterion 8", "integral over one period == difference series, exact", b)


def test_criterion_09_numeric_zeta_triangle():
    """xi_series, xi_reduced, xi_quadrature pairwise within relative 1e-10 at
    128 bits on 10 seeded queries (k in 1..3, s in [1/2,4], alpha,beta in
    (0,2]); k=1 chain matches s * zeta(s+1, (x+beta)/L) / L^s via the
    in-package Hurwitz oracle to 1e-12; < 2 min."""
    rng = random.Random(42)
    with budget(120) as b:
        for i in range(10):
            k = rng.randint(1, 3)
            s = Fraction(rng.randint(1, 8), 2)
            params = Params(Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4))
            y = Fraction(rng.randint(72, 140), 4)
            x = y * params.log_sum - params.beta
            q = ZetaQuery(k=k, s=s, x=x, params=params, precision=128)
            a = xi_series(q)
            c = xi_reduced(q)
            d = xi_quadrature(q)
            with mp.workprec(170):
                tol = abs(a.value) * mp.mpf("1e-10")
                assert abs(a.value - c.value) <= tol, (i, "series vs reduced")
                assert abs(a.value - d.value) <= tol, (i, "series vs quadrature")
                assert abs(c.value - d.value) <= tol, (i, "reduced vs quadrature")
            q1 = ZetaQuery(k=1, s=s, x=x, params=params, precision=128)
            r1 = xi_series(q1)
            hz, _ = hurwitz_zeta(s + 1, y, 150)
            with mp.workprec(170):
                L_m = mp.mpf(params.log_sum.numerator) / params.log_sum.denominator
                s_m = mp.mpf(s.numerator) / s.denominator
                ref = L_m ** (-s_m) * s_m * hz
                assert abs(r1.value - ref) <= abs(ref) * mp.mpf("1e-12"), (i, "chain")
    report("criterion 9", "10 queries, three routes pairwise 1e-10, chain 1e-12", b)


def test_criterion_10_polylogarithm_identities():
    """polylog_neg_rational(r) == polylog_series(-r) for r <= 6, and the
    integration map raises Li_k to Li_(k+1) for -3 <= k <= 3; exact; < 2 s."""
    with budget(2) as b:
        for r in range(7):
            assert polylog_neg_rational(r, 12) == polylog_series(-r, 12)
        for k in range(-3, 4):
            assert polylog_series(k, 12).integrate_over_t() == polylog_series(k + 1, 12)
    report("criterion 10", "rational closed forms and the index-raising map", b)


def test_criterion_11_appell_structure():
    """Derivative chain n <= 10; addition == shift substitution;
    multiplication == dilation for factor <= 4; power_sum == direct summation
    for mTop <= 20, n <= 6; exact; < 10 s."""
    rng = random.Random(1011)
    with budget(10) as b:
        for _ in range(3):
            params = rand_params(rng)
            for k in (-2, 1, 3):
                for n in range(1, 11):
                    assert appell_derivative(n, k, params) == n * gpb_explicit(
                        n - 1, k, params
                    ).poly
            y = rand_rat(rng)
            for n in range(7):
                shift = gpb_explicit(n, 2, params).poly.compose(Poly1((y, 1)))
                assert addition_formula(n, 2, params, y) == shift
                for factor in range(1, 5):
                    dilated = gpb_explicit(n, 2, params).poly.compose(Poly1((0, factor)))
                    assert multiplication_theorem(n, 2, params, factor) == dilated
        for _ in range(6):
            ln_b = rand_rat(rng, -4, 4, 3, nonzero=True)
            m_top = rng.randint(0, 20)
            n = rng.randint(1, 6)
            direct = sum(Fraction(j) ** n for j in range(1, m_top + 1))
            assert power_sum(m_top, n, ln_b) == direct
    report("criterion 11", "derivative, addition, multiplication, power sums", b)


def test_criterion_12_cli_determinism_and_examples():
    """`verify --seed 42` (all suites) exits 0 twice with byte-identical
    stdout; the documented table entries reproduce; empty ranges exit 3."""
    base = [sys.executable, "-m", "polybernoulli.cli"]
    with budget(60) as b:
        first = subprocess.run(
            base + ["verify", "--seed", "42", "--format", "json"],
            capture_output=True,
        )
        second = subprocess.run(
            base + ["verify", "--seed", "42", "--format", "json"],
            capture_output=True,
        )
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["ok"] is True

        neg = subprocess.run(
            base + ["table", "--kind", "pb-neg", "--n", "0:2", "--k", "0:2"],
            capture_output=True,
            text=True,
        )
        cells = {
            (e["n"], e["k"]): e["value"] for e in json.loads(neg.stdout)["entries"]
        }
        assert cells[(1, 1)] == "2" and cells[(2, 2)] == "14"

        poly = subprocess.run(
            base
            + ["table", "--kind", "gpb-poly", "--n", "0:1", "--k", "1",
               "--alpha", "1", "--beta", "0"],
            capture_output=True,
            text=True,
        )
        coeffs = {e["n"]: e["coeffs"] for e in json.loads(poly.stdout)["entries"]}
        assert coeffs[0] == ["1"] and coeffs[1] == ["1/2", "1"]

        empty = subprocess.run(
            base + ["table", "--kind", "pb-number", "--n", "5:1", "--k", "1"],
            capture_output=True,
        )
        assert empty.returncode == 3
    report("criterion 12", "byte-identical verify runs and documented table rows", b)
