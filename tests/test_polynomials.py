"""Dense univariate and sparse bivariate polynomial rings.

Arithmetic is checked through evaluation homomorphisms at random rational
points: an operation on polynomials must commute with evaluation.
"""

import random
from fractions import Fraction

import pytest

from polybernoulli import Params, Poly1, Poly2, sym_closed

from conftest import rand_rat


def rand_poly1(rng, degree_max=6):
    return Poly1([rand_rat(rng) for _ in range(rng.randint(0, degree_max) + 1)])


def rand_poly2(rng, degree_max=4):
    p = Poly2()
    for _ in range(rng.randint(0, 8)):
        i = rng.randint(0, degree_max)
        j = rng.randint(0, degree_max)
        p = p + Poly2({(i, j): rand_rat(rng)})
    return p


def test_poly1_eval_homomorphism():
    rng = random.Random(101)
    for _ in range(200):
        p = rand_poly1(rng)
        q = rand_poly1(rng)
        x = rand_rat(rng)
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)


def test_poly1_scalar_mixing():
    rng = random.Random(102)
    for _ in range(100):
        p = rand_poly1(rng)
        c = rand_rat(rng)
        x = rand_rat(rng)
        assert (c * p)(x) == c * p(x)
        assert (p * c)(x) == p(x) * c
        assert (p + c)(x) == p(x) + c
        assert (c - p)(x) == c - p(x)


def test_poly1_pow_matches_repeated_multiplication():
    rng = random.Random(103)
    for _ in range(40):
        p = rand_poly1(rng, degree_max=3)
        acc = Poly1((Fraction(1),))
        for e in range(6):
            assert p**e == acc
            acc = acc * p


def test_poly1_compose():
    rng = random.Random(104)
    for _ in range(60):
        outer = rand_poly1(rng, degree_max=4)
        inner = rand_poly1(rng, degree_max=3)
        x = rand_rat(rng)
        assert outer.compose(inner)(x) == outer(inner(x))


def test_poly1_derivative_antiderivative_inverse():
    rng = random.Random(105)
    for _ in range(60):
        p = rand_poly1(rng)
        assert p.antiderivative().derivative() == p
        # antiderivative is normalized to zero constant term
        assert p.antiderivative().coefficient(0) == 0


def test_poly1_degree_and_trim():
    assert Poly1(()).degree == -1
    assert Poly1((0, 0, 0)).degree == -1
    assert Poly1((1, 2, 0, 0)).degree == 1
    assert Poly1((0, 0, Fraction(3, 7))).coefficient(2) == Fraction(3, 7)
    assert Poly1((1,)).coefficient(5) == 0


def test_poly1_x_and_constant_builders():
    x = Poly1.x()
    assert x(Fraction(4, 3)) == Fraction(4, 3)
    five = Poly1.constant(5)
    assert five(Fraction(99)) == 5
    assert (x + five).degree == 1


def test_poly1_hashable_and_equal():
    a = Poly1((Fraction(1, 2), 1))
    b = Poly1((Fraction(1, 2), Fraction(2, 2)))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_poly2_eval_homomorphism():
    rng = random.Random(106)
    for _ in range(120):
        p = rand_poly2(rng)
        q = rand_poly2(rng)
        x = rand_rat(rng, -4, 4)
        y = rand_rat(rng, -4, 4)
        assert (p + q)(x, y) == p(x, y) + q(x, y)
        assert (p - q)(x, y) == p(x, y) - q(x, y)
        assert (p * q)(x, y) == p(x, y) * q(x, y)
    # A dense degree-(20, 20) polynomial with large numerators and
    # denominators, against the literal term sum.
    big = sym_closed(20, 20, Params(Fraction(10**6, 7), Fraction(1, 999999)))
    for x, y in ((Fraction(10**6, 7), Fraction(1, 999999)), (Fraction(1, 2), Fraction(-1, 3))):
        assert big(x, y) == sum(c * x**i * y**j for (i, j), c in big.terms.items())
    assert Poly2()(Fraction(3), Fraction(5)) == 0


def test_poly2_swap_vars_is_involution():
    rng = random.Random(107)
    for _ in range(60):
        p = rand_poly2(rng)
        x = rand_rat(rng, -4, 4)
        y = rand_rat(rng, -4, 4)
        assert p.swap_vars()(x, y) == p(y, x)
        assert p.swap_vars().swap_vars() == p


def test_poly2_from_single_variable():
    rng = random.Random(108)
    for _ in range(40):
        p1 = rand_poly1(rng, degree_max=4)
        x = rand_rat(rng, -4, 4)
        y = rand_rat(rng, -4, 4)
        assert Poly2.from_x(p1)(x, y) == p1(x)
        assert Poly2.from_y(p1)(x, y) == p1(y)


def test_poly2_sorted_terms_is_sorted_and_zero_free():
    p = Poly2({(2, 1): Fraction(3), (0, 0): Fraction(1), (1, 5): Fraction(-2)})
    terms = list(p.sorted_terms())
    assert terms == sorted(terms)
    q = p - p
    assert list(q.sorted_terms()) == []
    assert not q


def test_poly2_power():
    p = Poly2({(1, 0): Fraction(1), (0, 1): Fraction(1)})  # x + y
    cube = p**3
    assert cube.coefficient(2, 1) == 3
    assert cube.coefficient(3, 0) == 1
    assert cube.coefficient(1, 1) == 0
