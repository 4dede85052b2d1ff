"""Symmetrized two-variable poly-Bernoulli polynomials C_n^(-m)(x, y; a, b).

Writing L = alpha + beta, the definition pulls the generalized one-variable
polynomials back to the classical normalization:

    C_n^(-m)(x, y; a, b)
        = L^(-n) sum_{k=0}^{m} C(m,k) B_n^(-k)(x; a, b) ((y - beta)/L)^(m-k),

i.e. the classical symmetrized polynomial evaluated at ((x-beta)/L,
(y-beta)/L).  With both slots renormalized the same way, the bivariate
generating function e^(Xt) e^(Yu) / (e^t + e^u - e^(t+u)) with X = (x+alpha)/L
and Y = (y+alpha)/L is symmetric under (t,X) <-> (u,Y), which is what makes
the duality C_n^(-m)(x,y) = C_m^(-n)(y,x) hold for every parameter choice.  A
shift of y alone (keeping x un-normalized) satisfies no such symmetry; the
tests keep a counterexample.  sym_closed, the closed form by Stirling numbers
of the second kind, is the production route: it grows core's one weight
recurrence at the shift alpha/L and pairs the rows; sym_def (the defining
sum) and sym_gf_oracle (the generating function) are its two independent
oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .core import _next_weights
from .exact_arith import binomial
from .generalized import Params, gpb_explicit
from .polynomials import Poly1, Poly2
from .polyseries import Series2, ps2_lonesum_kernel

__all__ = ["sym_def", "sym_closed", "sym_gf_oracle", "duality_check"]


def sym_def(n: int, m: int, params: Params) -> Poly2:
    """Defining sum; exact bivariate polynomial in (x, y)."""
    if n < 0 or m < 0:
        raise ValueError("sym_def expects n, m >= 0")
    L = params.log_sum
    y_shift = Poly1((-params.beta / L, Fraction(1) / L))  # (y - beta)/L
    acc = Poly2()
    for k in range(m + 1):
        bx = Poly2.from_x(gpb_explicit(n, -k, params).poly)
        yy = Poly2.from_y(y_shift ** (m - k))
        acc = acc + binomial(m, k) * bx * yy
    return Fraction(1) / L**n * acc


def sym_closed(n: int, m: int, params: Params) -> Poly2:
    """Closed double-Stirling form, exact in (x, y).

    sum_{a,b} C(n,a) C(m,b) D[n-a][m-b] X^a Y^b, X = (x+alpha)/L, Y = (y+alpha)/L
    (a (y-beta)/L anchor fails the definition), D[p][q] = sum_j w(p,j) w(q,j)
    = sum_j (j!)^2 S(p,j) S(q,j).  With alpha/L = P/Q, core's weight rows
    V[p][j] = sum_l (-1)^l C(j,l) (P + lQ)^p = sum_i C(p,i) P^i Q^(p-i) w(p-i,j)
    take the shift by alpha/L into D on both axes, and the x^a y^b coefficient
    is C(n,a) C(m,b) (V V^T)[n-a][m-b] / (Q^(n-a+m-b) L^(a+b)).
    """
    if n < 0 or m < 0:
        raise ValueError("sym_closed expects n, m >= 0")
    P, Q = (params.alpha / params.log_sum).as_integer_ratio()
    rows = [(1,)]
    for _ in range(max(n, m)):
        rows.append(_next_weights(rows[-1], P, Q))
    num, den = params.log_sum.as_integer_ratio()
    coeffs = {}
    for a in range(n + 1):
        for b in range(m + 1):
            gram = sum(u * v for u, v in zip(rows[n - a], rows[m - b]))
            top = binomial(n, a) * binomial(m, b) * gram * den ** (a + b)
            coeffs[a, b] = Fraction(top, Q ** (n - a + m - b) * num ** (a + b))
    return Poly2(coeffs)


def sym_gf_oracle(params: Params, order_t: int, order_u: int) -> Series2:
    """e^(Xt) e^(Yu) / (e^t + e^u - e^(t+u)) with Poly2 coefficients.

    X = (x+alpha)/L, Y = (y+alpha)/L.  Coefficient (n, m) times n! m! must
    equal sym_def(n, m, params).
    """
    L = params.log_sum
    x_anchor = Poly2.from_x(Poly1((params.alpha / L, Fraction(1) / L)))
    y_anchor = Poly2.from_y(Poly1((params.alpha / L, Fraction(1) / L)))

    def exp_row(anchor: Poly2, order: int) -> list[Poly2]:
        row = [Poly2.constant(1)]
        for i in range(1, order + 1):
            row.append(row[-1] * anchor * Fraction(1, i))
        return row

    ex = exp_row(x_anchor, order_t)
    ey = exp_row(y_anchor, order_u)
    exponentials = Series2([[ex[i] * ey[j] for j in range(order_u + 1)] for i in range(order_t + 1)])
    kernel = ps2_lonesum_kernel(order_t, order_u)
    lifted = Series2(
        [
            [Poly2.constant(kernel.coefficient(i, j)) for j in range(order_u + 1)]
            for i in range(order_t + 1)
        ]
    )
    return exponentials * lifted


def duality_check(n: int, m: int, params: Params) -> bool:
    """C_n^(-m)(x, y) == C_m^(-n)(y, x), exactly."""
    return sym_closed(n, m, params) == sym_closed(m, n, params).swap_vars()
