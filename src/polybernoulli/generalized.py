"""Poly-Bernoulli polynomials with ln-parameters alpha, beta (and gamma).

All parameters enter as exact rationals alpha = ln a, beta = ln b,
gamma = ln c; alpha + beta != 0 always.  The defining explicit formula is

    B_n^(k)(x; a, b) = sum_{m=0}^{n} (m+1)^(-k)
                       sum_{j=0}^{m} (-1)^j C(m,j) (x - j alpha - (j+1) beta)^n

with the three-parameter variant substituting gamma*x for x.  It is computed
as the Appell sum over the numbers B_m^(k)(0; a, b), which core grows by its
one weight recurrence in transposed form, b(i, m) = (m+1) L b(i-1, m+1)
- (beta + mL) b(i-1, m) with L = alpha + beta, and keeps in its one bounded
row cache under (k, beta, L); gamma scales x^i by gamma^i.  Everything else
here (scaling from the classical polynomials, two recurrences, Appell
derivative, addition/multiplication rules, generalized Bernoulli polynomials
and the power-sum identity) is an alternative route to the same values, and
the tests pin all of them to the literal double sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import _appell, _pb_row, bernoulli_poly, pb_poly
from .exact_arith import binomial
from .polynomials import Poly1

__all__ = [
    "Params",
    "GPBPoly",
    "gpb_explicit",
    "gpb_explicit_c",
    "gpb_number",
    "scale_from_classical",
    "gen_bernoulli_poly",
    "recurrence_I",
    "recurrence_II",
    "appell_derivative",
    "addition_formula",
    "multiplication_theorem",
    "power_sum",
]


@dataclass(frozen=True)
class Params:
    """ln-parameters (alpha, beta, gamma); alpha + beta must not vanish."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.alpha + self.beta == 0:
            raise ValueError("Params requires alpha + beta != 0")

    @property
    def log_sum(self) -> Fraction:
        return self.alpha + self.beta


@dataclass(frozen=True)
class GPBPoly:
    """An indexed polynomial together with the parameters that produced it."""

    n: int
    k: int
    params: Params
    poly: Poly1

    def validate(self, *, three_param: bool = False) -> "GPBPoly":
        """Degree/leading/constant checks for the defining constructors."""
        expected_lead = self.params.gamma**self.n if three_param else Fraction(1)
        if self.poly.degree != self.n:
            raise AssertionError("degree %d != %d" % (self.poly.degree, self.n))
        if self.poly.coefficient(self.n) != expected_lead:
            raise AssertionError("leading coefficient is not %s" % (expected_lead,))
        if self.n == 0 and self.poly.coefficient(0) != 1:
            raise AssertionError("constant polynomial must be 1")
        return self


def gpb_explicit(n: int, k: int, params: Params) -> GPBPoly:
    """B_n^(k)(x; a, b), any integer k: the Appell sum over core's number
    row for (k, beta, alpha + beta), equal to the explicit double sum."""
    row = _pb_row(n, k, params.beta, params.log_sum)
    return GPBPoly(n, k, params, Poly1(_appell(row, n)))


def gpb_explicit_c(n: int, k: int, params: Params) -> GPBPoly:
    """Three-parameter B_n^(k)(x; a, b, c): the two-parameter polynomial at
    gamma*x."""
    coeffs = _appell(_pb_row(n, k, params.beta, params.log_sum), n)
    return GPBPoly(n, k, params, Poly1([c * params.gamma**i for i, c in enumerate(coeffs)]))


def gpb_number(n: int, k: int, params: Params) -> Fraction:
    """B_n^(k)(a, b) = B_n^(k)(0; a, b)."""
    return _pb_row(n, k, params.beta, params.log_sum)[n]


def scale_from_classical(n: int, k: int, params: Params) -> GPBPoly:
    """(alpha+beta)^n B_n^(k)((x - beta)/(alpha+beta)) via the classical
    polynomial; must reproduce gpb_explicit."""
    L = params.log_sum
    substitution = Poly1((-params.beta / L, 1 / L))
    poly = L**n * pb_poly(n, k).compose(substitution)
    return GPBPoly(n, k, params, poly)


def gen_bernoulli_poly(n: int, ln_a: Fraction, ln_b: Fraction) -> Poly1:
    """Generalized Bernoulli polynomial with kernel t e^(xt) / (b^t - a^t).

    Scaling route: with D = ln b - ln a != 0,
    B_n(x; a, b) = D^(n-1) B_n((x - ln a)/D); in particular the n = 0 value is
    the constant 1/D, not 1.
    """
    ln_a, ln_b = Fraction(ln_a), Fraction(ln_b)
    d = ln_b - ln_a
    if d == 0:
        raise ValueError("gen_bernoulli_poly needs ln b != ln a")
    substitution = Poly1((-ln_a / d, 1 / d))
    return d ** (n - 1) * bernoulli_poly(n).compose(substitution)


def recurrence_I(n: int, k: int, params: Params, variant: str = "derived") -> GPBPoly:
    """Upper-index recurrence, k >= 1.

    (alpha+beta) sum_{m=0}^{n} C(n,m) B_{n-m}^(k-1)(a,b)
        sum_{l=0}^{m} (-alpha)^e / (n-l+1) C(m,l) B_l(x; a^{-1}, b)

    where B_l(x; a^{-1}, b) is the generalized Bernoulli polynomial with
    ln-parameters (-alpha, beta).  The exponent e is m-l ("derived", the
    substitution-consistent reading) or m+l ("printed", kept only so tests can
    demonstrate it fails once |alpha| != 1).
    """
    if k < 1:
        raise ValueError("recurrence_I holds for k >= 1")
    if variant not in ("derived", "printed"):
        raise ValueError("variant must be 'derived' or 'printed'")
    bernoulli = [gen_bernoulli_poly(l, -params.alpha, params.beta) for l in range(n + 1)]
    acc = Poly1()
    for m in range(n + 1):
        outer = binomial(n, m) * gpb_number(n - m, k - 1, params)
        if not outer:
            continue
        inner = Poly1()
        for l in range(m + 1):
            e = m - l if variant == "derived" else m + l
            w = (-params.alpha) ** e * Fraction(binomial(m, l), n - l + 1)
            inner = inner + w * bernoulli[l]
        acc = acc + outer * inner
    return GPBPoly(n, k, params, params.log_sum * acc)


def recurrence_II(n: int, k: int, params: Params) -> GPBPoly:
    """Index-lowering recurrence; lower-index values taken from gpb_explicit.

    (n+1) B_n^(k)(x;a,b) = B_n^(k-1)(x;a,b) + (x-beta) L^(n-1)
        + (x-beta) sum_{m=1}^{n-1} L^(n-m-1) C(n,m)   B_m^(k)(x;a,b)
        -          sum_{m=1}^{n-1} L^(n-m)   C(n,m-1) B_m^(k)(x;a,b)

    with L = alpha+beta (empty sums at n = 1; constant 1 at n = 0).
    """
    if n == 0:
        return GPBPoly(0, k, params, Poly1((1,)))
    L = params.log_sum
    x_shift = Poly1((-params.beta, 1))
    acc = gpb_explicit(n, k - 1, params).poly + x_shift * L ** (n - 1)
    for m in range(1, n):
        bm = gpb_explicit(m, k, params).poly
        acc = acc + x_shift * (L ** (n - m - 1) * binomial(n, m)) * bm
        acc = acc - (L ** (n - m) * binomial(n, m - 1)) * bm
    return GPBPoly(n, k, params, acc * Fraction(1, n + 1))


def appell_derivative(n: int, k: int, params: Params) -> Poly1:
    """d/dx B_n^(k)(x; a, b); equals n B_{n-1}^(k)(x; a, b)."""
    return gpb_explicit(n, k, params).poly.derivative()


def addition_formula(n: int, k: int, params: Params, y: Fraction) -> Poly1:
    """sum_m C(n,m) B_m^(k)(x;a,b) y^(n-m); equals the polynomial at x+y."""
    y = Fraction(y)
    acc = Poly1()
    for m in range(n + 1):
        acc = acc + (binomial(n, m) * y ** (n - m)) * gpb_explicit(m, k, params).poly
    return acc


def multiplication_theorem(n: int, k: int, params: Params, factor: int) -> Poly1:
    """sum_i C(n,i) B_i^(k)(x;a,b) ((factor-1) x)^(n-i); equals the
    polynomial at factor*x."""
    acc = Poly1()
    for i in range(n + 1):
        scaled_x = (Fraction(factor - 1) * Poly1.x()) ** (n - i)
        acc = acc + binomial(n, i) * gpb_explicit(i, k, params).poly * scaled_x
    return acc


def power_sum(m_top: int, n: int, ln_b: Fraction) -> Fraction:
    """sum_{j=1}^{m_top} j^n via the generalized Bernoulli polynomial with
    parameters (1, b, b).

    [B_{n+1}(m_top+1; 1, b, b) - B_{n+1}(0; 1, b, b)] / ((n+1) (ln b)^n),
    where B(x; 1, b, b) evaluates the two-parameter polynomial at (ln b) x.
    """
    ln_b = Fraction(ln_b)
    if ln_b == 0:
        raise ValueError("power_sum needs ln b != 0")
    if m_top < 0 or n < 1:
        raise ValueError("power_sum expects m_top >= 0 and n >= 1")
    p = gen_bernoulli_poly(n + 1, Fraction(0), ln_b)
    diff = p(ln_b * (m_top + 1)) - p(Fraction(0))
    return diff / ((n + 1) * ln_b**n)
