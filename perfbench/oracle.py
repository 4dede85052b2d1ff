"""Reference values computed apart from the package.

Nothing here imports polybernoulli.  The exact families start from Kaneko's
Stirling formula for the numbers,

    B_n^(k) = (-1)^n sum_m (-1)^m m! S(n,m) / (m+1)^k,

and reach the polynomials by the Appell expansion
B_n^(k)(x) = sum_i C(n,i) B_{n-i}^(k) x^i, the affine map
L^n B_n^(k)((x - beta)/L) with L = alpha + beta, and the substitution
x -> gamma x.  The symmetrized polynomials come from the double-Stirling form

    C_n^(-m)(x, y) = sum_j (j!)^2 [sum_p C(n,p) S(p,j) X^(n-p)]
                                  [sum_l C(m,l) S(l,j) Y^(m-l)]

with X = (x + alpha)/L and Y = (y + alpha)/L.  The numeric zeta references
use mpmath alone: s zeta(s+1, (x+beta)/L) / L^s for k = 1, and a tanh-sinh
quadrature of the defining integral with mpmath.polylog for k >= 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    """S(n, 0..n) by the triangle recurrence."""
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1) + (0,)
    return tuple((m * prev[m] if m else 0) + (prev[m - 1] if m else 0) for m in range(n + 1))


def stirling2(n: int, m: int) -> int:
    return _stirling_row(n)[m] if 0 <= m <= n else 0


@lru_cache(maxsize=None)
def pb_number(n: int, k: int) -> Fraction:
    """Kaneko's formula; any integer k."""
    acc = Fraction(0)
    for m in range(n + 1):
        weight = Fraction(1, (m + 1) ** k) if k >= 0 else Fraction((m + 1) ** -k)
        acc += (-1) ** m * math.factorial(m) * stirling2(n, m) * weight
    return (-1) ** n * acc


def gpb_coeffs(n: int, k: int, alpha, beta, gamma=1) -> list[Fraction]:
    """Coefficients, lowest degree first, of gamma-substituted
    L^n B_n^(k)((x - beta)/L).

    Expanding (x - beta)^i in sum_i C(n,i) B_{n-i} L^(n-i) (x - beta)^i gives
    the x^r coefficient sum_{i>=r} C(n,i) B_{n-i} L^(n-i) C(i,r) (-beta)^(i-r).
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    L = alpha + beta
    outer = [math.comb(n, i) * pb_number(n - i, k) * L ** (n - i) for i in range(n + 1)]
    return [
        gamma**r * sum(outer[i] * math.comb(i, r) * (-beta) ** (i - r) for i in range(r, n + 1))
        for r in range(n + 1)
    ]


def _anchored_stirling_poly(n: int, j: int, c0: Fraction, c1: Fraction) -> list[Fraction]:
    """sum_p C(n,p) S(p,j) (c0 + c1 x)^(n-p), coefficients lowest first."""
    out = [Fraction(0)] * (n + 1)
    for p in range(j, n + 1):
        w = math.comb(n, p) * stirling2(p, j)
        if not w:
            continue
        e = n - p
        for i in range(e + 1):
            out[i] += w * math.comb(e, i) * c0 ** (e - i) * c1**i
    return out


def sym_terms(n: int, m: int, alpha, beta) -> dict[tuple[int, int], Fraction]:
    """Nonzero coefficients {(xdeg, ydeg): c} of C_n^(-m)(x, y; a, b)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    L = alpha + beta
    c0, c1 = alpha / L, 1 / L
    terms: dict[tuple[int, int], Fraction] = {}
    for j in range(min(n, m) + 1):
        w = math.factorial(j) ** 2
        fx = _anchored_stirling_poly(n, j, c0, c1)
        fy = _anchored_stirling_poly(m, j, c0, c1)
        for i, a in enumerate(fx):
            if a:
                for l, b in enumerate(fy):
                    if b:
                        terms[(i, l)] = terms.get((i, l), Fraction(0)) + w * a * b
    return {key: c for key, c in terms.items() if c}


def poly_at(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sym_at(terms: dict, x, y) -> Fraction:
    return sum((c * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in terms.items()), Fraction(0))


def _mpf(q) -> mpmath.mpf:
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def xi_numeric(k: int, s, x, alpha, beta, prec: int) -> mpmath.mpf:
    """xi_k(s, x; a, b) at prec bits, for k >= 1, s > 0, x > 0."""
    with mp.workprec(prec):
        s_, x_, a_, b_ = _mpf(s), _mpf(x), _mpf(alpha), _mpf(beta)
        L = a_ + b_
        if k == 1:
            return s_ * mp.zeta(s_ + 1, (x_ + b_) / L) / L**s_

        def f(t):
            li = mp.polylog(k, -mp.expm1(-L * t))
            return li * mp.exp(-x_ * t) * t ** (s_ - 1) / (mp.expm1(b_ * t) - mp.expm1(-a_ * t))

        # t = u^q turns the t^(s-1) endpoint into u^(qs-1), qs >= 2.
        q = max(1, math.ceil(2 / Fraction(s)))

        def g(u):
            return f(u**q) * q * u ** (q - 1)

        first = min(mp.mpf(1), 1 / (x_ + b_))
        cutoff = max(mp.mpf(2), (prec + 40) * mp.log(2) / (x_ + b_))
        head = mp.quad(g, [0, first ** (mp.mpf(1) / q)])
        body = mp.quad(f, [first] + [mp.mpf(1)] * (first < 1) + [cutoff])
        tail = mp.quad(f, [cutoff, mp.inf])
        return (head + body + tail) / mp.gamma(s_)
