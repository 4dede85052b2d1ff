"""Zeta-type function attached to the generalized poly-Bernoulli family.

    xi_k(s, x; a, b) = (1/Gamma(s)) * integral_0^inf
        Li_k(1 - (ab)^(-t)) e^(-xt) t^(s-1) / (b^t - a^(-t)) dt

for integer k, with ln-parameters alpha = ln a, beta = ln b.  Three numeric
routes are implemented and kept independent so they can cross-check each
other:

* xi_series sums the expanded form
  sum_n (n+1)^(-k) sum_j (-1)^j C(n,j) (x + j alpha + (j+1) beta)^(-s).
  The outer terms decay like n^(-(k + (x+beta)/(alpha+beta))) so this route is
  fast only when (x+beta)/(alpha+beta) is comfortably large; the inner
  alternating sums lose about n bits to cancellation, which the engine
  provisions for by restarting at a higher working precision.
* xi_quadrature integrates the kernel directly (tanh-sinh on [0, t0, 1] plus
  [1, T] with an explicit exponential tail bound at the cutoff T).
* xi_reduced rescales the classical (alpha=1, beta=0) series:
  xi_k(s, x; a, b) = L^(-s) xi_k(s, (x+beta)/L).

At s = -n the series truncates exactly and xi interpolates the polynomials:
xi_k(-n, x; a, b) = (-1)^n B_n^(k)(-x; a, b).  The exact-mode entry points
(xi_exact_neg, difference_exact and the right side of raabe_poly) are one
literal truncated series in rational arithmetic, summed by _shifted_sum, and
stay independent of the Kaneko number rows behind the polynomial families.

The Hurwitz zeta oracle (direct summation plus Euler-Maclaurin tail with
exact Bernoulli numbers) is implemented here rather than borrowed, because it
anchors the k = 1 chain xi_1(s, x) = s zeta(s+1, x) and supplies the zeta
constants of the polylogarithm expansion near z = 1.

Numeric results are (value, error-estimate, term-count) triples of mpmath
floats; every numeric operation runs at the query precision plus guard bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from .core import bernoulli_numbers
from .exact_arith import binomial, inv_int_pow
from .generalized import Params, gpb_explicit

__all__ = [
    "GUARD_BITS",
    "NonConvergenceError",
    "ToleranceError",
    "NumericResult",
    "ZetaQuery",
    "hurwitz_zeta",
    "polylog_on_kernel",
    "xi_series",
    "xi_reduced",
    "xi_quadrature",
    "xi_exact_neg",
    "difference_exact",
    "difference_series",
    "raabe_poly",
    "raabe_numeric",
]

GUARD_BITS = 32


class NonConvergenceError(Exception):
    """The stopping rule was not met within the term budget."""

    def __init__(self, message: str, terms: int, last_term=None):
        super().__init__(message)
        self.terms = terms
        self.last_term = last_term


class ToleranceError(Exception):
    """A numeric route finished with an error estimate above its contract."""

    def __init__(self, message: str, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class NumericResult(NamedTuple):
    value: object
    error: object
    terms: int


@dataclass(frozen=True)
class ZetaQuery:
    """One numeric evaluation request.

    precision is in bits (result target, guard bits are added internally);
    max_terms bounds the series length before NonConvergenceError.
    """

    k: int
    s: Fraction
    x: Fraction
    params: Params
    precision: int = 64
    max_terms: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "s", Fraction(self.s))
        object.__setattr__(self, "x", Fraction(self.x))
        if not 1 <= self.precision <= 4096:
            raise ValueError("precision must be within 1..4096 bits")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")

    def require_numeric(self) -> None:
        if self.k < 1:
            raise ValueError("numeric mode needs k >= 1")
        if self.s <= 0:
            raise ValueError("numeric mode needs s > 0 (use the exact entry points at s = -n)")
        if self.x <= 0:
            raise ValueError("numeric mode needs x > 0")
        if self.params.alpha <= 0 or self.params.beta < 0:
            raise ValueError("numeric mode needs alpha > 0 and beta >= 0")


def _rat_mpf(q) -> "mp.mpf":
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# Hurwitz zeta oracle: direct sum + Euler-Maclaurin tail, exact Bernoullis.

def _bernoulli_bucketed(m: int) -> Fraction:
    # Round the table length up so repeated growth hits the same cache key.
    table = bernoulli_numbers(((m // 64) + 1) * 64)
    return table[m]


def hurwitz_zeta(s, a, precision: int) -> tuple:
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for real s != 1, a > 0.

    Returns (value, error bound).  The Euler-Maclaurin remainder for real s
    is bounded by the first omitted correction term, which is what the bound
    reports.
    """
    s = Fraction(s)
    a = Fraction(a)
    if s == 1:
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    if a <= 0:
        raise ValueError("hurwitz_zeta needs a > 0")
    wp = precision + GUARD_BITS + 16
    n_direct = max(12, int(0.36 * (precision + 16)) + int(abs(s)) + 4)
    with mp.workprec(wp):
        target = mp.ldexp(1, -(precision + 8))
        s_m = _rat_mpf(s)
        a_m = _rat_mpf(a)
        for _ in range(8):
            direct = mp.mpf(0)
            for n in range(n_direct):
                direct += (n + a_m) ** (-s_m)
            w = n_direct + a_m
            total = direct + w ** (1 - s_m) / (s_m - 1) + w ** (-s_m) / 2
            # Correction terms B_2r/(2r)! * s(s+1)...(s+2r-2) * w^(-s-2r+1),
            # added while they shrink; the first sub-target term bounds the
            # remainder and is not added.
            poch = s_m
            wpow = w ** (-s_m - 1)
            w2 = w * w
            prev_mag = mp.inf
            r = 1
            err = None
            while True:
                b2r = _bernoulli_bucketed(2 * r)
                term = _rat_mpf(b2r) / math.factorial(2 * r) * poch * wpow
                mag = abs(term)
                if mag < target:
                    err = mag
                    break
                if mag >= prev_mag or r > 4 * n_direct:
                    break  # diverging tail: need a larger direct part
                total += term
                prev_mag = mag
                poch *= (s_m + 2 * r - 1) * (s_m + 2 * r)
                wpow /= w2
                r += 1
            if err is not None:
                return total, err
            n_direct *= 2
    raise ToleranceError("hurwitz_zeta failed to reach its target", estimate=prev_mag)


_ZETA_CACHE: dict = {}


def _zeta_value(m: int, wp: int):
    """zeta(m) for integer m >= 2 at wp bits, cached."""
    key = (m, wp)
    if key not in _ZETA_CACHE:
        value, _err = hurwitz_zeta(Fraction(m), Fraction(1), wp)
        _ZETA_CACHE[key] = value
    return _ZETA_CACHE[key]


# ---------------------------------------------------------------------------
# Polylogarithm on the kernel argument z = 1 - e^(-v), v > 0.

def polylog_on_kernel(k: int, v) -> "mp.mpf":
    """Li_k(1 - e^(-v)) for v >= 0, integer k >= 1, at current precision.

    For z = 1 - e^(-v) <= 1/2 the defining series is summed directly; closer
    to 1 the expansion of Li_k around z = 1 in powers of mu = ln z is used,
    with mu computed stably as ln(2 sinh(v/2)) - v/2 and the zeta constants
    supplied by the in-package Hurwitz oracle and exact Bernoulli numbers
    (zeta(0) = -1/2, zeta(-m) = -B_{m+1}/(m+1)).
    """
    if k < 1:
        raise ValueError("polylog_on_kernel needs k >= 1")
    v = mp.mpf(v)
    if v < 0:
        raise ValueError("polylog_on_kernel needs v >= 0")
    if v == 0:
        return mp.mpf(0)
    if k == 1:
        return v  # -ln(1 - z) with z = 1 - e^(-v)
    wp = mp.prec
    eps = mp.ldexp(1, -(wp + 4))
    if v <= math.log(2):
        z = -mp.expm1(-v)
        term = mp.mpf(z)
        acc = term
        n = 1
        while abs(term) > eps:
            n += 1
            term = z**n / mp.mpf(n) ** k
            acc += term
        return acc
    # mu = ln(1 - e^(-v)) < 0, |mu| < ln 2.  The sinh form is stable for
    # moderate v; once e^(-v) dips below ~2^(-wp/3) switch to the series in
    # w = e^(-v), which never cancels.
    w = mp.exp(-v)
    if w < mp.ldexp(1, -(wp // 3)):
        mu = -(w + w * w / 2 + w * w * w / 3)
    else:
        mu = mp.log(2 * mp.sinh(v / 2)) - v / 2
    harmonic = sum(Fraction(1, i) for i in range(1, k))
    mupow = mp.mpf(1)  # mu^j / j!
    acc = mp.mpf(0)
    j = 0
    quiet = 0
    while quiet < 2:
        if j == k - 1:
            acc += mupow * (_rat_mpf(harmonic) - mp.log(-mu))
        else:
            m = k - j
            if m >= 2:
                zeta_m = _zeta_value(m, wp)
            elif m == 0:
                zeta_m = mp.mpf(-0.5)
            else:  # m <= -1: zeta(-|m|) from Bernoulli numbers
                idx = -m + 1
                zeta_m = -_rat_mpf(_bernoulli_bucketed(idx)) / idx
            term = zeta_m * mupow
            acc += term
            if j > k and abs(mupow) < eps:
                quiet += 1
        j += 1
        mupow = mupow * mu / j
    return acc


# ---------------------------------------------------------------------------
# The shared series engine.

def _difference_series_sum(
    k: int,
    s: Fraction,
    x,
    alpha: Fraction,
    beta: Fraction,
    shift: int,
    precision: int,
    max_terms: int,
) -> NumericResult:
    """sum_{m>=0} (m+1)^(-k) sum_{j=0}^{m+d} (-1)^j C(m+d, j) base_j^(-s)
    with d = shift and base_j = x + j alpha + (j+1) beta.

    Stops at the first index where three consecutive outer terms fall below
    2^-(precision+8) in absolute value; raises NonConvergenceError when
    max_terms is hit first.  The reported error adds a power-law tail fit to
    the accumulated rounding bound.  x may be a Fraction or an mpf (the
    latter is used by quadrature over x).
    """
    s = Fraction(s)
    threshold_exp = precision + 8
    cancel_budget = 96
    while True:
        out = _series_attempt(
            k, s, x, alpha, beta, shift, precision, max_terms, threshold_exp, cancel_budget
        )
        if isinstance(out, NumericResult):
            return out
        cancel_budget = out  # provision more bits and rerun


def _series_attempt(
    k, s, x, alpha, beta, shift, precision, max_terms, threshold_exp, cancel_budget
):
    wp = precision + GUARD_BITS + 24 + cancel_budget
    with mp.workprec(wp):
        s_m = _rat_mpf(s)
        if isinstance(x, Fraction):
            def base(j: int):
                return _rat_mpf(x + j * alpha + (j + 1) * beta)
        else:
            alpha_m = _rat_mpf(alpha)
            beta_m = _rat_mpf(beta)
            x_m = mp.mpf(x)

            def base(j: int):
                return x_m + j * alpha_m + (j + 1) * beta_m

        threshold = mp.ldexp(1, -threshold_exp)
        f_cache: list = []

        def f(j: int):
            while len(f_cache) <= j:
                f_cache.append(base(len(f_cache)) ** (-s_m))
            return f_cache[j]

        f0_mag = int(mp.mag(f(0)))
        total = mp.mpf(0)
        recent: dict[int, object] = {}
        max_addend_bits = f0_mag
        row = [1]
        for _ in range(shift):
            row = _pascal_next(row)
        consecutive = 0
        stop_at = None
        for m in range(max_terms):
            d = m + shift
            needed = d + max(f0_mag, 0) + 40
            if needed > cancel_budget + GUARD_BITS:
                return max(2 * (d + max(f0_mag, 0)) + 80, cancel_budget * 2)
            inner = mp.mpf(0)
            for j in range(d + 1):
                c = row[j] * f(j)
                inner = inner - c if j & 1 else inner + c
            max_addend_bits = max(max_addend_bits, row[d // 2].bit_length() + f0_mag)
            term = inner / mp.mpf(m + 1) ** k
            total += term
            recent[m] = abs(term)
            if m - 16 in recent:
                del recent[m - 16]
            if abs(term) < threshold:
                consecutive += 1
                if consecutive >= 3:
                    stop_at = m
                    break
            else:
                consecutive = 0
            row = _pascal_next(row)
        if stop_at is None:
            raise NonConvergenceError(
                "series did not meet the stopping rule within %d terms" % max_terms,
                terms=max_terms,
                last_term=recent.get(max_terms - 1),
            )
        n_stop = stop_at
        rounding = mp.ldexp(n_stop + 2, max_addend_bits + (n_stop + 2).bit_length() - wp)
        tail = _tail_fit(recent, n_stop, threshold)
        return NumericResult(total, tail + rounding, n_stop + 1)


def _pascal_next(row: list) -> list:
    out = [1] * (len(row) + 1)
    for i in range(1, len(row)):
        out[i] = row[i - 1] + row[i]
    return out


def _tail_fit(recent: dict, n_stop: int, threshold):
    """Power-law tail estimate from the last recorded outer terms."""
    a_n = recent.get(n_stop)
    if a_n is None or a_n == 0:
        return 2 * threshold
    gap = 0
    for g in range(min(10, n_stop), 0, -1):
        if n_stop - g in recent and recent[n_stop - g] > a_n:
            gap = g
            break
    if gap == 0:
        return 2 * (n_stop + 2) * a_n
    q = mp.log(recent[n_stop - gap] / a_n) / mp.log(mp.mpf(n_stop + 1) / (n_stop + 1 - gap))
    if not mp.isfinite(q) or q <= mp.mpf("1.05"):
        return 2 * (n_stop + 2) * a_n * 20
    return 2 * a_n * (n_stop + 1) / (q - 1)


# ---------------------------------------------------------------------------
# Public numeric routes.

def xi_series(query: ZetaQuery) -> NumericResult:
    """Direct summation of the expanded series."""
    query.require_numeric()
    if query.params.beta <= 0:
        raise ValueError("xi_series needs beta > 0 (xi_reduced covers beta = 0)")
    return _difference_series_sum(
        query.k,
        query.s,
        query.x,
        query.params.alpha,
        query.params.beta,
        0,
        query.precision,
        query.max_terms,
    )


def xi_reduced(query: ZetaQuery) -> NumericResult:
    """L^(-s) times the classical series at the reduced argument (x+beta)/L."""
    query.require_numeric()
    L = query.params.log_sum
    y = (query.x + query.params.beta) / L
    res = _difference_series_sum(
        query.k, query.s, y, Fraction(1), Fraction(0), 0, query.precision, query.max_terms
    )
    with mp.workprec(query.precision + GUARD_BITS + 16):
        scale = _rat_mpf(L) ** (-_rat_mpf(query.s))
        value = res.value * scale
        error = res.error * scale + abs(value) * mp.ldexp(1, -(query.precision + GUARD_BITS))
        return NumericResult(value, error, res.terms)


def _integral_tail_bound(k, s_m, x_m, alpha_m, beta_m, L_m, T):
    """Rigorous bound for the kernel integral over [T, inf), T >= 1.

    |Li_k| <= L*t for k = 1 and <= zeta(2) < 5/3 otherwise; the denominator
    is increasing, so 1/den(T) bounds it; t^(s-1) (times t for k=1) is
    bounded by t^mdeg with an exact closed form for int_T^inf t^mdeg e^(-xt).
    """
    den_at_t = mp.expm1(beta_m * T) - mp.expm1(-alpha_m * T)
    mdeg = max(0, int(mp.ceil(s_m - 1)) + (1 if k == 1 else 0))
    scale = (L_m if k == 1 else mp.mpf(5) / 3) / den_at_t
    poly = mp.mpf(0)
    coeff = mp.mpf(1)  # mdeg!/(mdeg-i)!
    for i in range(mdeg + 1):
        poly += coeff * T ** (mdeg - i) / x_m ** (i + 1)
        coeff *= mdeg - i
    return scale * mp.exp(-x_m * T) * poly


def xi_quadrature(query: ZetaQuery) -> NumericResult:
    """Tanh-sinh quadrature of the defining integral.

    The segment touching t = 0 is integrated under the substitution t = u^q
    with q = max(1, ceil(2/s)), which turns the t^(s-1) endpoint behavior
    into u^(qs-1) with qs-1 >= 1: tanh-sinh node placement loses relative
    accuracy next to a singular endpoint at high working precision, so the
    singularity is removed analytically instead.  The remaining segments
    (split at min(1, 1/(x+beta)) and 1) are smooth; integration stops at a
    cutoff T chosen so that the explicit exponential tail bound is
    negligible, and the total is divided by Gamma(s).  Raises ToleranceError
    if the achieved estimate misses the precision contract.
    """
    query.require_numeric()
    p = query.precision
    wp = p + GUARD_BITS + 24
    with mp.workprec(wp):
        s_m = _rat_mpf(query.s)
        x_m = _rat_mpf(query.x)
        alpha_m = _rat_mpf(query.params.alpha)
        beta_m = _rat_mpf(query.params.beta)
        L_m = alpha_m + beta_m
        k = query.k

        def kernel(t):
            if t <= 0:
                return mp.mpf(0)
            li = polylog_on_kernel(k, L_m * t)
            den = mp.expm1(beta_m * t) - mp.expm1(-alpha_m * t)
            return li / den * mp.exp(-x_m * t) * t ** (s_m - 1)

        T = max(mp.mpf(2), (p + 32) * mp.log(2) / x_m)
        tail = _integral_tail_bound(k, s_m, x_m, alpha_m, beta_m, L_m, T)
        target_tail = mp.ldexp(1, -(p + 16))
        for _ in range(64):
            if tail <= target_tail:
                break
            T *= 2
            tail = _integral_tail_bound(k, s_m, x_m, alpha_m, beta_m, L_m, T)
        first_break = min(mp.mpf(1), 1 / (x_m + beta_m))
        q = max(1, int(math.ceil(2 / query.s)))
        q_m = mp.mpf(q)

        def near_zero(u):
            if u <= 0:
                return mp.mpf(0)
            return kernel(u**q) * q_m * u ** (q - 1)

        integral, quad_err = mp.quad(
            near_zero,
            [mp.mpf(0), first_break ** (mp.mpf(1) / q)],
            method="tanh-sinh",
            error=True,
            maxdegree=11,
        )
        points = [first_break, mp.mpf(1), T]
        rest, rest_err = mp.quad(
            kernel,
            [pt for i, pt in enumerate(points) if i == 0 or pt > points[i - 1]],
            method="tanh-sinh",
            error=True,
            maxdegree=11,
        )
        integral += rest
        quad_err += rest_err
        gamma_s = mp.gamma(s_m)
        value = integral / gamma_s
        error = (quad_err + tail) / gamma_s + abs(value) * mp.ldexp(1, -(wp - 6))
        tolerance = max(mp.ldexp(1, -(p + 4)), abs(value) * mp.ldexp(1, -(p - 8)))
        if not error <= tolerance:
            raise ToleranceError(
                "quadrature error estimate misses the precision contract",
                value=value,
                estimate=error,
            )
        return NumericResult(value, error, 0)


# ---------------------------------------------------------------------------
# Exact (negative-integer s) entry points.

def _shifted_sum(
    k: int, params: Params, x: Fraction, m_top: int, step: int, power: int
) -> Fraction:
    """sum_{m=0}^{m_top} (m+1)^(-k) sum_{j=0}^{m+step} (-1)^j C(m+step, j)
    (x + j alpha + (j+1) beta)^power, exact: the truncated series behind
    every exact-mode entry point."""
    x = Fraction(x)
    acc = Fraction(0)
    for m in range(m_top + 1):
        inner = Fraction(0)
        for j in range(m + step + 1):
            base = x + j * params.alpha + (j + 1) * params.beta
            inner += (-1) ** j * binomial(m + step, j) * base**power
        acc += inv_int_pow(m + 1, k) * inner
    return acc


def xi_exact_neg(k: int, n: int, params: Params, x: Fraction) -> Fraction:
    """xi_k(-n, x; a, b), exact: the series truncates at m = n.

    Equals (-1)^n B_n^(k)(-x; a, b).
    """
    if n < 0:
        raise ValueError("xi_exact_neg expects n >= 0")
    return _shifted_sum(k, params, x, n, 0, n)


def difference_exact(k: int, n: int, params: Params, x: Fraction) -> Fraction:
    """xi_k(-n, x + alpha + beta) - xi_k(-n, x), exact: truncates at m = n-1."""
    if n < 0:
        raise ValueError("difference_exact expects n >= 0")
    return -_shifted_sum(k, params, x, n - 1, 1, n)


def difference_series(query: ZetaQuery) -> NumericResult:
    """Numeric xi_k(s, x+alpha+beta) - xi_k(s, x) via the one-step-higher
    difference series (same stopping rule as xi_series)."""
    query.require_numeric()
    res = _difference_series_sum(
        query.k,
        query.s,
        query.x,
        query.params.alpha,
        query.params.beta,
        1,
        query.precision,
        query.max_terms,
    )
    return NumericResult(-res.value, res.error, res.terms)


def raabe_poly(n: int, k: int, params: Params, x: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the polynomial mean-value identity, exact.

    Left: integral_0^(alpha+beta) B_n^(k)(x - w; a, b) dw.
    Right: 1/(n+1) sum_{m=0}^{n} (m+1)^(-k) sum_{j=0}^{m+1} (-1)^j C(m+1,j)
           (x - j alpha - (j+1) beta)^(n+1).
    """
    if n < 0:
        raise ValueError("raabe_poly expects n >= 0")
    x = Fraction(x)
    L = params.log_sum
    anti = gpb_explicit(n, k, params).poly.antiderivative()
    lhs = anti(x) - anti(x - L)
    rhs = (-1) ** (n + 1) * _shifted_sum(k, params, -x, n, 1, n + 1) / (n + 1)
    return lhs, rhs


def raabe_numeric(query: ZetaQuery) -> tuple[NumericResult, NumericResult]:
    """Both sides of the integral mean-value identity for s > 1.

    Left: integral over w in [0, alpha+beta] of xi_k(s, x+w) (Gauss-Legendre
    over series evaluations).  Right: 1/(s-1) times the one-step-higher
    difference series at exponent s-1.
    """
    query.require_numeric()
    if query.s <= 1:
        raise ValueError("raabe_numeric needs s > 1")
    p = query.precision
    wp = p + GUARD_BITS + 16
    integrand_errors = []
    with mp.workprec(wp):
        L_m = _rat_mpf(query.params.log_sum)

        def integrand(w):
            res = _difference_series_sum(
                query.k,
                query.s,
                _rat_mpf(query.x) + w,
                query.params.alpha,
                query.params.beta,
                0,
                p + 8,
                query.max_terms,
            )
            integrand_errors.append(res.error)
            return res.value

        lhs_value, lhs_quad_err = mp.quad(
            integrand, [0, L_m], method="gauss-legendre", error=True, maxdegree=7
        )
        lhs_err = lhs_quad_err + L_m * (max(integrand_errors) if integrand_errors else 0)
        lhs = NumericResult(lhs_value, lhs_err, len(integrand_errors))
        rhs_raw = _difference_series_sum(
            query.k,
            query.s - 1,
            query.x,
            query.params.alpha,
            query.params.beta,
            1,
            p,
            query.max_terms,
        )
        scale = 1 / (_rat_mpf(query.s) - 1)
        rhs = NumericResult(rhs_raw.value * scale, rhs_raw.error * abs(scale), rhs_raw.terms)
        return lhs, rhs
