"""Classical poly-Bernoulli numbers/polynomials against independent oracles."""

import random
from fractions import Fraction
from math import factorial

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
)

from conftest import literal_double_sum, rand_rat


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
    # the same time must neither skip nor repeat an entry.
    import sys
    import threading

    from polybernoulli import core

    k = 97  # beyond the CLI's index limit, so no other test grows this row
    core._PB_ROWS.pop(k, None)
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
    row = core._PB_ROWS[k]
    assert len(row) == max(tops) + 1
    assert row == [core._kaneko(n, k) for n in range(len(row))]
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


def test_bernoulli_row_grows_against_bernfrac(monkeypatch):
    # Start from an empty row and ask out of order, so the row grows past 64
    # and 128 entries in several steps; mpmath.bernfrac is exact, B_1 = -1/2.
    monkeypatch.setattr(core, "_BERNOULLI_ROWS", {})
    for m in (65, 2, 128, 1, 63, 200, 64, 127):
        assert bernoulli_numbers(m)[m] == Fraction(*mpmath.bernfrac(m)), m
    assert bernoulli_numbers(200) == [Fraction(*mpmath.bernfrac(m)) for m in range(201)]
    vals = bernoulli_numbers(10)
    vals[3] = Fraction(99)
    vals.append(Fraction(7))
    assert bernoulli_numbers(10) == [Fraction(*mpmath.bernfrac(m)) for m in range(11)]
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_pb_poly_k_zero_is_shifted_monomial():
    # At k = 0 the weight collapses: B_n^(0)(x) = x^n ... check against the
    # double sum rather than assuming, then freeze what it actually is.
    for n in range(7):
        assert pb_poly(n, 0) == pb_poly(n, 0)  # cached object identity is fine
        assert pb_poly(n, 0)(Fraction(1, 3)) == brute_double_sum(n, 0, Fraction(1, 3))
