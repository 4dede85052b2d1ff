"""Two- and three-parameter polynomials: every alternative route must land on
the explicit double sum."""

import random
from fractions import Fraction

import pytest

from polybernoulli import (
    Params,
    Poly1,
    addition_formula,
    appell_derivative,
    bernoulli_poly,
    gen_bernoulli_poly,
    gpb_explicit,
    gpb_explicit_c,
    gpb_number,
    multiplication_theorem,
    pb_poly,
    power_sum,
    recurrence_I,
    recurrence_II,
    scale_from_classical,
)

from conftest import literal_double_sum, rand_params, rand_rat

CLASSICAL = Params(Fraction(1), Fraction(0))


def test_params_validation():
    with pytest.raises(ValueError):
        Params(Fraction(1), Fraction(-1))
    p = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2))
    assert p.log_sum == Fraction(5, 6)
    assert p.gamma == 2
    # coercion from ints/strings handled by Fraction
    assert Params(1, 0).alpha == Fraction(1)


def test_classical_parameters_reduce_to_classical_polynomials():
    for n in range(8):
        for k in range(-3, 4):
            assert gpb_explicit(n, k, CLASSICAL).poly == pb_poly(n, k)


def test_explicit_equals_scaling_route():
    rng = random.Random(401)
    for _ in range(6):
        params = rand_params(rng)
        for n in range(7):
            for k in range(-3, 4):
                lhs = gpb_explicit(n, k, params)
                rhs = scale_from_classical(n, k, params)
                assert lhs.poly == rhs.poly, (n, k, params)
                assert lhs.poly == literal_double_sum(n, k, params), (n, k, params)


def test_explicit_matches_literal_sum_at_degree_24_large_params():
    # Beyond the n <= 8 grids: the number-row route against the literal sum
    # at the parameters of the CLI's large-parameter requests.
    two = Params(Fraction(1000000, 7), Fraction(1, 999999))
    three = Params(two.alpha, two.beta, Fraction(2, 3))
    for k in (-24, 5):
        assert gpb_explicit(24, k, two).poly == literal_double_sum(24, k, two), k
        assert gpb_explicit_c(24, k, three).poly == literal_double_sum(24, k, three), k


def test_gpb_validate_checks_shape():
    rng = random.Random(402)
    params = rand_params(rng)
    for n in range(6):
        gpb_explicit(n, 2, params).validate()
    # three-parameter leading coefficient is gamma^n
    p3 = Params(Fraction(1, 2), Fraction(1, 3), Fraction(3, 2))
    for n in range(5):
        g = gpb_explicit_c(n, 2, p3).validate(three_param=True)
        assert g.poly.coefficient(n) == Fraction(3, 2) ** n


def test_three_parameter_is_substitution_of_two_parameter():
    rng = random.Random(403)
    for _ in range(8):
        params = rand_params(rng)
        params = Params(params.alpha, params.beta, rand_rat(rng, -3, 3, 2, nonzero=True))
        x = rand_rat(rng)
        for n in range(6):
            for k in (-2, 0, 1, 3):
                two = gpb_explicit(n, k, params).poly
                three = gpb_explicit_c(n, k, params).poly
                assert three(x) == two(params.gamma * x)
                assert three == literal_double_sum(n, k, params), (n, k, params)


def test_gpb_number_is_constant_coefficient():
    rng = random.Random(404)
    params = rand_params(rng)
    for n in range(6):
        for k in range(-2, 3):
            assert gpb_number(n, k, params) == gpb_explicit(n, k, params).poly(0)


def test_recurrence_II_full_grid():
    rng = random.Random(405)
    for _ in range(5):
        params = rand_params(rng)
        for n in range(7):
            for k in range(-3, 4):
                assert recurrence_II(n, k, params).poly == gpb_explicit(n, k, params).poly


def test_recurrence_I_derived_variant():
    rng = random.Random(406)
    for _ in range(4):
        params = rand_params(rng)
        for n in range(6):
            for k in range(1, 5):
                assert recurrence_I(n, k, params).poly == gpb_explicit(n, k, params).poly


def test_recurrence_I_printed_variant_only_survives_unit_alpha():
    # exponent m+l instead of m-l: indistinguishable while alpha is +-1,
    # wrong as soon as it is not.
    ok = Params(Fraction(1), Fraction(1, 3))
    assert recurrence_I(4, 2, ok, variant="printed").poly == gpb_explicit(4, 2, ok).poly
    bad = Params(Fraction(1, 2), Fraction(1, 3))
    assert recurrence_I(4, 2, bad, variant="printed").poly != gpb_explicit(4, 2, bad).poly
    with pytest.raises(ValueError):
        recurrence_I(3, 2, ok, variant="misprint")
    with pytest.raises(ValueError):
        recurrence_I(3, 0, ok)


def test_gen_bernoulli_poly_reductions():
    # ln a = -1, ln b = 0 gives kernel t e^{xt}/(1 - e^{-t}) = t e^{(x+1)t}/(e^t - 1),
    # i.e. the ordinary Bernoulli polynomial at x + 1.
    for n in range(8):
        lhs = gen_bernoulli_poly(n, Fraction(-1), Fraction(0))
        rhs = bernoulli_poly(n).compose(Poly1((1, 1)))
        assert lhs == rhs
    # degenerate a = b has no kernel
    with pytest.raises(ValueError):
        gen_bernoulli_poly(3, Fraction(1, 2), Fraction(1, 2))


def test_gen_bernoulli_poly_series_oracle():
    from math import factorial

    from polybernoulli.polyseries import Series1, ps_exp

    rng = random.Random(407)
    order = 9
    for _ in range(5):
        ln_a = rand_rat(rng, -3, 3, 2)
        ln_b = rand_rat(rng, -3, 3, 2)
        if ln_a == ln_b:
            continue
        x = rand_rat(rng, -3, 3, 2)
        t = Series1([0, 1] + [0] * (order - 1))
        kernel = (t * ps_exp(x, order)) / (ps_exp(ln_b, order) - ps_exp(ln_a, order))
        for n in range(kernel.order + 1):
            want = gen_bernoulli_poly(n, ln_a, ln_b)(x)
            assert kernel.coefficient(n) * factorial(n) == want


def test_appell_derivative_chain():
    rng = random.Random(408)
    for _ in range(4):
        params = rand_params(rng)
        for k in (-2, 1, 3):
            for n in range(1, 11):
                lhs = appell_derivative(n, k, params)
                rhs = n * gpb_explicit(n - 1, k, params).poly
                assert lhs == rhs


def test_addition_formula_is_shift():
    rng = random.Random(409)
    for _ in range(6):
        params = rand_params(rng)
        y = rand_rat(rng)
        for n in range(7):
            lhs = addition_formula(n, 2, params, y)
            rhs = gpb_explicit(n, 2, params).poly.compose(Poly1((y, 1)))
            assert lhs == rhs


def test_multiplication_theorem_is_dilation():
    rng = random.Random(410)
    for _ in range(5):
        params = rand_params(rng)
        for factor in range(1, 5):
            for n in range(6):
                lhs = multiplication_theorem(n, 2, params, factor)
                rhs = gpb_explicit(n, 2, params).poly.compose(Poly1((0, factor)))
                assert lhs == rhs


def test_power_sum_against_direct_summation():
    rng = random.Random(411)
    for _ in range(8):
        ln_b = rand_rat(rng, -4, 4, 3, nonzero=True)
        m_top = rng.randint(0, 20)
        n = rng.randint(1, 6)
        assert power_sum(m_top, n, ln_b) == sum(Fraction(j) ** n for j in range(1, m_top + 1))
    with pytest.raises(ValueError):
        power_sum(5, 3, Fraction(0))
    with pytest.raises(ValueError):
        power_sum(5, 0, Fraction(1))
