"""Classical poly-Bernoulli numbers/polynomials against independent oracles."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial, lcm

import mpmath
import pytest

from polybernoulli import (
    bernoulli_numbers,
    bernoulli_poly,
    core,
    lonesum_count,
    pb_number,
    pb_number_neg_closed,
    pb_number_recurrence,
    pb_poly,
    stirling2,
)

from conftest import literal_double_sum, rand_rat


def kaneko_stirling_sum(n, k):
    """Kaneko's B_n^(k) = (-1)^n sum_m (-1)^m m! S(n,m) / (m+1)^k, over the
    exact_arith Stirling table: an oracle apart from core's recurrence.  The
    sum runs on integers over lcm(1..n+1)^k, 1 when k <= 0."""
    den = lcm(*range(1, n + 2)) ** max(k, 0)
    total = 0
    for m in range(n + 1):
        share = den // (m + 1) ** k if k > 0 else (m + 1) ** -k
        total += (-1) ** (n + m) * factorial(m) * stirling2(n, m) * share
    return Fraction(total, den)


def brute_double_sum(n, k, x):
    """Literal double sum at classical parameters, evaluated at x."""
    return literal_double_sum(n, k)(Fraction(x))


def test_pb_poly_matches_literal_double_sum():
    rng = random.Random(301)
    for n in range(9):
        for k in range(-4, 5):
            x = rand_rat(rng, -5, 5, 4)
            assert pb_poly(n, k)(x) == brute_double_sum(n, k, x), (n, k)


def test_number_row_grows_once_under_concurrent_readers():
    # One row per k, grown to the largest n asked for; threads growing it at
    # the same time must neither skip nor repeat an entry, and its stream of
    # numbers, advanced by two threads at once, would raise.
    import sys
    import threading

    from polybernoulli import core

    k = 97  # beyond the CLI's index limit, so no other test grows this row
    core._PB_ROWS.pop((k, 0, 1), None)
    tops = [39, 12, 30, 5, 39, 21, 8, 33]
    seen = {}

    def read(i):
        seen[i] = [pb_number(n, k) for n in range(tops[i] + 1)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(tops))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    row = core._PB_ROWS[(k, 0, 1)][0]
    assert len(row) == max(tops) + 1
    assert row == [kaneko_stirling_sum(n, k) for n in range(len(row))]
    for i, top in enumerate(tops):
        assert seen[i] == row[: top + 1]


def test_pb_poly_is_monic_of_degree_n():
    for n in range(9):
        for k in (-3, -1, 0, 1, 2, 4):
            p = pb_poly(n, k)
            assert p.degree == n
            assert p.coefficient(n) == 1


def test_pb_poly_rejects_negative_n():
    with pytest.raises(ValueError):
        pb_poly(-1, 2)


def test_pb_number_known_values():
    # Small table, k = 1 column is the Bernoulli sequence with B_1 = +1/2.
    assert pb_number(0, 1) == 1
    assert pb_number(1, 1) == Fraction(1, 2)
    assert pb_number(2, 1) == Fraction(1, 6)
    assert pb_number(3, 1) == 0
    assert pb_number(4, 1) == Fraction(-1, 30)
    # k = 2 column; cross-checked against the signed Stirling expansion
    # (-1)^n sum_m (-1)^m m! S(n,m) / (m+1)^k.
    assert pb_number(1, 2) == Fraction(1, 4)
    assert pb_number(2, 2) == Fraction(-1, 36)
    # negative k landmarks
    assert pb_number(1, -1) == 2
    assert pb_number(2, -2) == 14


def test_recurrence_reproduces_explicit_values():
    for n in range(9):
        for k in range(-4, 5):
            assert pb_number_recurrence(n, k) == pb_number(n, k), (n, k)


def test_negative_index_closed_form_is_integral_and_symmetric():
    for n in range(7):
        for k in range(7):
            v = pb_number_neg_closed(n, k)
            assert isinstance(v, int)
            assert v == pb_number_neg_closed(k, n)
            assert v == pb_number(n, -k)
    with pytest.raises(ValueError):
        pb_number_neg_closed(-1, 0)


def test_negative_index_matches_lonesum_enumeration():
    for n in range(0, 7):
        for k in range(0, 7):
            if n * k <= 12:
                assert pb_number_neg_closed(n, k) == lonesum_count(n, k), (n, k)


def test_lonesum_guard_and_edges():
    assert lonesum_count(0, 0) == 1
    assert lonesum_count(0, 5) == 1
    assert lonesum_count(3, 0) == 1
    assert lonesum_count(1, 1) == 2
    assert lonesum_count(2, 2) == 14
    with pytest.raises(ValueError):
        lonesum_count(5, 5)
    with pytest.raises(ValueError):
        lonesum_count(-1, 1)


def test_bernoulli_poly_frozen_values():
    x = Fraction
    assert bernoulli_poly(0).coeffs == (1,)
    assert bernoulli_poly(1).coeffs == (x(-1, 2), 1)
    assert bernoulli_poly(2).coeffs == (x(1, 6), -1, 1)
    assert bernoulli_poly(3).coeffs == (0, x(1, 2), x(-3, 2), 1)
    with pytest.raises(ValueError):
        bernoulli_poly(-2)


def test_bernoulli_poly_series_oracle():
    # t e^{xt} / (e^t - 1) = sum B_n(x) t^n / n!; expand at a rational x and
    # compare coefficientwise.
    from polybernoulli.polyseries import Series1, ps_exp

    rng = random.Random(302)
    order = 10
    for _ in range(6):
        x = rand_rat(rng, -4, 4, 3)
        t = Series1([0, 1] + [0] * (order - 1))
        series = (t * ps_exp(x, order)) / (ps_exp(1, order) - 1)
        for n in range(series.order + 1):
            assert series.coefficient(n) * factorial(n) == bernoulli_poly(n)(x)


def test_bernoulli_numbers_match_polynomials_at_zero():
    vals = bernoulli_numbers(12)
    assert vals[1] == Fraction(-1, 2)
    for n, v in enumerate(vals):
        assert v == bernoulli_poly(n)(0)


def binomial_recurrence_bernoulli(n):
    """B_0 .. B_n by the classical recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
    for m >= 1, in Fractions: independent of the tangent numbers."""
    row = [Fraction(1)]
    for m in range(1, n + 1):
        row.append(-sum(comb(m + 1, j) * row[j] for j in range(m)) / (m + 1))
    return row


def test_bernoulli_row_grows_against_bernfrac(monkeypatch):
    # Start from an empty row and ask out of order, so the row grows past 64
    # and 128 entries in several steps; mpmath.bernfrac is exact, B_1 = -1/2.
    monkeypatch.setattr(core, "_BERNOULLI_ROW", [])
    for m in (65, 2, 128, 1, 63, 200, 64, 127):
        assert bernoulli_numbers(m)[m] == Fraction(*mpmath.bernfrac(m)), m
    assert bernoulli_numbers(200) == [Fraction(*mpmath.bernfrac(m)) for m in range(201)]
    assert bernoulli_numbers(200) == binomial_recurrence_bernoulli(200)
    vals = bernoulli_numbers(10)
    vals[3] = Fraction(99)
    vals.append(Fraction(7))
    assert bernoulli_numbers(10) == [Fraction(*mpmath.bernfrac(m)) for m in range(11)]
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_stirling_weights_match_stirling2(monkeypatch):
    # The cached rows grow by the weight recurrence at P = Q = 1; asked out of
    # order from an empty triangle, every row up to n = 64 is
    # (-1)^m m! S(n+1, m+1).
    monkeypatch.setattr(core, "_UNIT_WEIGHTS", [])
    for n in (40, 3, 64, 0, 41):
        core._unit_weights(n)
    rows = core._UNIT_WEIGHTS
    assert len(rows) == 65
    for n, row in enumerate(rows):
        want = tuple((-1) ** m * factorial(m) * stirling2(n + 1, m + 1) for m in range(n + 1))
        assert row == want, n


def test_numbers_grow_no_stirling_row(monkeypatch):
    # Numbers, the numeric zeta coefficients, the symmetrized closed form and
    # exact zeta at s = -n come from their own weight recurrences; only the
    # negative-index closed form reads the cached triangle, rows 0..max(n, k).
    from polybernoulli import Params, sym_closed, xi_exact_neg, zeta

    monkeypatch.setattr(core, "_UNIT_WEIGHTS", [])
    for k in (1, 2, 7, 64, -3):
        monkeypatch.delitem(core._PB_ROWS, (k, 0, 1), raising=False)
        pb_number(40, k)
    zeta._gf_coefficients.__wrapped__(3, 204)
    sym_closed(9, 7, Params(Fraction(1), Fraction(0)))
    sym_closed(6, 8, Params(Fraction(1, 2), Fraction(1, 3)))
    xi_exact_neg(5, 12, Params(Fraction(1, 2), Fraction(1, 3)), Fraction(1, 2))
    assert core._UNIT_WEIGHTS == []
    pb_number_neg_closed(5, 3)
    assert len(core._UNIT_WEIGHTS) == 6


def test_negative_index_closed_form_matches_kaneko_rows():
    # The Gram sum of weight rows against the Kaneko recurrence over every
    # (n, k) the CLI accepts: a second oracle beside lonesum_count.
    for k in range(65):
        for n in range(65):
            assert pb_number_neg_closed(n, k) == pb_number(n, -k), (n, k)


def test_kaneko_numbers_match_stirling_sum():
    # The recurrence stream against Kaneko's weighted Stirling sum, for every
    # k and n the CLI accepts.
    for k in range(-64, 65):
        numbers = list(itertools.islice(core._kaneko_numbers(k), 65))
        assert numbers == [kaneko_stirling_sum(n, k) for n in range(65)], k


def test_parametrized_kaneko_numbers_match_mapped_stirling_sum():
    # B_m^(k)(0; a, b) = sum_i C(m,i) B_{m-i}^(k) L^(m-i) (-beta)^i over the
    # classical Stirling-sum oracle, L = alpha + beta, for small and large
    # parameters, beta = 0 and alpha + beta < 0.
    cases = [
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(10**6, 7), Fraction(1, 999999)),
        (Fraction(5, 3), Fraction(0)),
        (Fraction(-3, 2), Fraction(5, 7)),
    ]
    for k in (-64, -7, 0, 1, 3, 64):
        classical = [kaneko_stirling_sum(n, k) for n in range(65)]
        for alpha, beta in cases:
            L = alpha + beta
            mapped = [
                sum(comb(m, i) * classical[m - i] * L ** (m - i) * (-beta) ** i for i in range(m + 1))
                for m in range(65)
            ]
            numbers = list(itertools.islice(core._kaneko_numbers(k, beta, L), 65))
            assert numbers == mapped, (k, alpha, beta)


def test_next_weights_match_literal_sum():
    # W_{P,Q}(p, j) = sum_l (-1)^l C(j,l) (P + Ql)^p for j <= p, with P
    # negative, zero and positive.
    for P, Q in ((-7, 3), (0, 1), (0, 5), (2, 1), (11, 4)):
        row = (1,)
        for p in range(41):
            literal = tuple(
                sum((-1) ** l * comb(j, l) * (P + Q * l) ** p for l in range(j + 1))
                for j in range(p + 1)
            )
            assert row == literal, (P, Q, p)
            row = core._next_weights(row, P, Q)


def test_pb_poly_k_zero_is_shifted_monomial():
    # At k = 0 the weight collapses: B_n^(0)(x) = x^n ... check against the
    # double sum rather than assuming, then freeze what it actually is.
    for n in range(7):
        assert pb_poly(n, 0) == pb_poly(n, 0)  # cached object identity is fine
        assert pb_poly(n, 0)(Fraction(1, 3)) == brute_double_sum(n, 0, Fraction(1, 3))
