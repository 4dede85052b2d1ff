"""Symmetrized bivariate polynomials: definition, closed form, duality, GF."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from polybernoulli import (
    Params,
    Poly1,
    duality_check,
    gpb_explicit,
    pb_number,
    pb_poly,
    sym_closed,
    sym_def,
    sym_gf_oracle,
)

from conftest import literal_double_sum, rand_params

CLASSICAL = Params(Fraction(1), Fraction(0))


def test_sym_def_rejects_negative_indices():
    with pytest.raises(ValueError):
        sym_def(-1, 0, CLASSICAL)
    with pytest.raises(ValueError):
        sym_closed(0, -2, CLASSICAL)


def test_closed_form_equals_definition():
    rng = random.Random(501)
    for _ in range(3):
        params = rand_params(rng)
        for n in range(6):
            for m in range(6):
                assert sym_closed(n, m, params) == sym_def(n, m, params), (n, m, params)
    # Larger indices, large parameters, alpha < 0, beta = 0 and empty axes.
    for n, m, alpha, beta in (
        (20, 20, Fraction(1, 2), Fraction(1, 3)),
        (7, 11, Fraction(10**6, 7), Fraction(1, 999999)),
        (0, 5, Fraction(1), Fraction(0)),
        (6, 0, Fraction(-3, 2), Fraction(5, 7)),
        (5, 4, Fraction(3, 2), Fraction(0)),
        (0, 0, Fraction(1, 2), Fraction(1, 3)),
    ):
        params = Params(alpha, beta)
        assert sym_closed(n, m, params) == sym_def(n, m, params), (n, m, params)


def test_duality_exact():
    rng = random.Random(502)
    for _ in range(4):
        params = rand_params(rng)
        for n in range(6):
            for m in range(6):
                assert sym_def(n, m, params) == sym_def(m, n, params).swap_vars()
                assert duality_check(n, m, params)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    k=st.integers(-6, 6),
    alpha=rationals,
    beta=rationals,
    n=st.integers(0, 5),
    m=st.integers(0, 5),
)
def test_weight_recurrence_families_property(k, alpha, beta, n, m):
    # Both forms of core's weight recurrence at drawn parameters: the number
    # rows behind gpb_explicit, and the shifted rows behind sym_closed.
    assume(alpha + beta != 0)
    params = Params(alpha, beta)
    assert gpb_explicit(n, k, params).poly == literal_double_sum(n, k, params), (n, k, params)
    closed = sym_closed(n, m, params)
    assert closed == sym_closed(m, n, params).swap_vars(), (n, m, params)
    assert closed == sym_def(n, m, params), (n, m, params)


def test_one_sided_shift_breaks_duality():
    # Renormalizing only the y slot, with x left alone, cannot be symmetric:
    # exhibit it at L = 2 where the two readings genuinely differ.
    params = Params(Fraction(3, 2), Fraction(1, 2))
    L = params.log_sum

    def lopsided(n, m):
        # same defining sum but with the raw x polynomial of the classical
        # normalization, i.e. skip the 1/L^n pull-back
        return L**n * sym_def(n, m, params)

    assert lopsided(2, 1) != lopsided(1, 2).swap_vars()


def test_classical_slice_gives_negative_index_numbers():
    # at alpha=1, beta=0 and x=y=0 the polynomial collapses to B_n^(-m)
    for n in range(6):
        for m in range(6):
            assert sym_def(n, m, CLASSICAL)(0, 0) == pb_number(n, -m)


def test_m_zero_reduces_to_one_variable_polynomial():
    rng = random.Random(503)
    for _ in range(4):
        params = rand_params(rng)
        L = params.log_sum
        for n in range(6):
            got = sym_def(n, 0, params)
            # the 1/L^n prefactor cancels the L^n of the classical-rescaling
            # route, leaving the classical k=0 polynomial at (x-beta)/L; no y
            # dependence at all
            want = pb_poly(n, 0).compose(Poly1((-params.beta / L, 1 / L)))
            assert all(j == 0 for (_, j, _c) in got.sorted_terms())
            for x in (Fraction(0), Fraction(1, 2), Fraction(-3)):
                assert got(x, Fraction(7)) == want(x)


def test_generating_function_oracle():
    rng = random.Random(504)
    for _ in range(2):
        params = rand_params(rng)
        grid = sym_gf_oracle(params, 4, 4)
        for n in range(5):
            for m in range(5 - n):
                got = grid.coefficient(n, m) * (factorial(n) * factorial(m))
                assert got == sym_def(n, m, params), (n, m, params)
