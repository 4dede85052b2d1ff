"""Zeta-type function attached to the generalized poly-Bernoulli family.

    xi_k(s, x; a, b) = (1/Gamma(s)) * integral_0^inf
        Li_k(1 - (ab)^(-t)) e^(-xt) t^(s-1) / (b^t - a^(-t)) dt

for integer k, with ln-parameters alpha = ln a, beta = ln b, L = alpha + beta.
By the paper's interpolation formula xi_k(s, x; a, b) = L^(-s) xi_k(s, y),
y = (x+beta)/L, every series entry point reads one series in y.  ROUTES
names the numeric routes; the series and the quadrature check each other:

* xi_series and xi_reduced sum the expanded form
  sum_n (n+1)^(-k) sum_j (-1)^j C(n,j) (x + j alpha + (j+1) beta)^(-s)
  as L^(-s) times the series in f(j) = (y + j)^(-s), and differ only in
  where the stop falls (_scaled_series).  The outer terms decay like
  n^(-(k + y)), so both are fast only when y is comfortably large.  The
  inner sum is the n-th difference of f; the engine keeps the running edge
  of that difference table as integers at the fixed scale
  2^-(wp + e - f0_bits), so outer term n costs one new power and n exact
  integer subtractions.  The differences lose about n bits to
  cancellation, which the engine provisions for by restarting at a higher
  working precision; its rounding bound, (n+2)(d+2) 2^(d + f0_bits - wp) for
  n + 1 terms up to difference order d with |f| <= 2^f0_bits, is derived at
  _difference_series_sum.
* xi_quadrature integrates the defining integral directly (tanh-sinh on
  [0, t0, 1] plus [1, T] with an explicit exponential tail bound at the
  cutoff T).  With z = 1 - e^(-Lt) the denominator
  e^(beta t) - e^(-alpha t) is e^(beta t) z, so the integrand is
  R_k(Lt) exp((s-1) ln t - (x+beta) t) with R_k(v) = Li_k(z)/z.  For k >= 2
  and v <= ln 2, R_k is the paper's generating function sum_n B_n^(k) v^n/n!,
  its numbers streamed from core's Kaneko recurrence, and a node takes one
  exponential; beyond, Li_k is expanded around z = 1; each is one integer
  sum over a list cached per (k, working precision).

At s = -n the series truncates exactly and xi interpolates the polynomials:
xi_k(-n, x; a, b) = (-1)^n B_n^(k)(-x; a, b).  Its inner sum is core's weight
W_{x+beta,L}(n, m), so xi_exact_neg sums one weight row against (m+1)^(-k),
apart from the Kaneko number rows of the polynomials; the exact difference
and mean-value identities read W(n, m+1).  The literal series is their oracle.

The Hurwitz zeta oracle (direct summation plus Euler-Maclaurin tail with
exact Bernoulli numbers) is implemented here rather than borrowed, because it
anchors the k = 1 chain xi_1(s, x) = s zeta(s+1, x) and supplies the zeta
constants of the polylogarithm expansion near z = 1.

Numeric results are (value, error-estimate, term-count) triples of mpmath
floats; every numeric operation runs at the query precision plus guard bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import to_fixed, to_rational

from .core import _kaneko_numbers, _weight_sum, bernoulli_numbers
from .generalized import Params, gpb_explicit

__all__ = [
    "GUARD_BITS",
    "ROUTES",
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
                b2r = bernoulli_numbers(2 * r)[2 * r]
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


# ---------------------------------------------------------------------------
# Polylogarithm on the kernel argument z = 1 - e^(-v), v > 0.

_FIXED_GUARD = 24  # bits the fixed-point sums carry beyond the working precision


def _coefficient_list(coeffs, wp: int, first: int) -> tuple:
    """The leading c_j of the iterable coeffs, exact Fractions, floored to
    integers at scale 2^(wp + _FIXED_GUARD).  The list ends after two
    consecutive nonzero c_j with j > first have |c_j| ln(2)^j below
    2^-(wp+4), so it covers every |u| <= ln 2 in sum_j c_j u^j."""
    scale = wp + _FIXED_GUARD
    with mp.workprec(scale):
        eps = mp.ldexp(1, -(wp + 4))
        out, quiet = [], 0
        for j, coeff in enumerate(coeffs):
            out.append((coeff.numerator << scale) // coeff.denominator)
            if j > first and coeff:
                quiet = quiet + 1 if abs(_rat_mpf(coeff)) * mp.ln2**j < eps else 0
                if quiet == 2:
                    return tuple(out)


@lru_cache(maxsize=16)
def _kernel_coefficients(k: int, wp: int) -> tuple:
    """c_j = zeta(k-j)/j!, with H_(k-1)/(k-1)! at j = k-1, for Li_k(e^mu) =
    sum_j c_j mu^j - ln(-mu) mu^(k-1)/(k-1)!.  zeta(k-j) grows like
    (j-k)!/(2 pi)^(j-k), so the list ends on |c_j| ln(2)^j, past j = k."""

    def zeta_over_factorial():
        for j in itertools.count():
            m = k - j
            if m >= 2:
                zeta_m = Fraction(*to_rational(hurwitz_zeta(m, 1, wp)[0]._mpf_))
            elif m == 1:  # in place of the pole: H_(k-1)
                zeta_m = sum(Fraction(1, i) for i in range(1, k))
            elif m == 0:
                zeta_m = Fraction(-1, 2)
            else:  # zeta(-n) = -B_(n+1)/(n+1)
                zeta_m = -bernoulli_numbers(1 - m)[1 - m] / (1 - m)
            yield zeta_m / math.factorial(j)

    return _coefficient_list(zeta_over_factorial(), wp, k)


@lru_cache(maxsize=16)
def _gf_coefficients(k: int, wp: int) -> tuple:
    """c_n = B_n^(k)/n!, |c_n| <= 1, of the paper's generating function
    Li_k(1 - e^(-v))/(1 - e^(-v)) = sum_n c_n v^n, from a fresh stream of
    core's Kaneko recurrence that no row cache keeps."""
    numbers = enumerate(_kaneko_numbers(k))
    return _coefficient_list((b / math.factorial(n) for n, b in numbers), wp, 0)


def _kernel_z(v, wp: int) -> "mp.mpf":
    """z = 1 - e^(-v) under workprec(wp), v > 0 of at most wp bits, from one
    exponential, for v <= ln 2 wp + 8 + max(0, -mag v) bits wide: exact as
    e^(-v) >= 1/2, 1 - e^(-v) is within 2^-(wp+4) relative (v - v^2/2 if v < 2^-wp)."""
    if v > mp.ln2:
        return 1 - mp.exp(-v)
    mag = mp.mag(v)
    if mag < -wp:
        return v - v * v / 2
    return 1 - mp.exp(-v, prec=wp + 8 - min(mag, 0))


def _coefficient_sum(coeffs, u, first: int, wp: int) -> "mp.mpf":
    """sum_j c_j u^j, |u| <= ln 2, over a _coefficient_list under workprec(wp):
    on integers at scale 2^(wp+G), G = _FIXED_GUARD, each product truncated,
    stopped after two consecutive nonzero terms with j > first below
    2^-(wp+4), and returned unrounded.  A running power is off by at most
    2/(1 - ln 2) < 7 units of 2^-(wp+G), a term by 7 |c| + 2: 9 for |c_n| <= 1,
    16 for |c_j| < 2; so k + wp <= 2^(G-4)/16 terms stay below 2^-(wp+4)."""
    scale = wp + _FIXED_GUARD
    eps = 1 << (_FIXED_GUARD - 4)  # 2^-(wp+4) at the fixed scale
    u_fixed = to_fixed(u._mpf_, scale)
    acc, upow, quiet = 0, 1 << scale, 0
    for j, coeff in enumerate(coeffs):
        if coeff:
            term = coeff * upow >> scale
            acc += term
            if j > first:
                quiet = quiet + 1 if abs(term) < eps else 0
                if quiet == 2:
                    break
        upow = upow * u_fixed >> scale
    return mp.ldexp(acc, -scale)


def _polylog_near_one(k: int, q, wp: int) -> "mp.mpf":
    """Li_k(1 - q) for 0 < q < 1/2 and k >= 2 under workprec(wp): the
    expansion around z = 1 in mu = ln z = log1p(-q), in (-ln 2, 0)."""
    mu = mp.log1p(-q)
    li = _coefficient_sum(_kernel_coefficients(k, wp), mu, k, wp)
    return li - mp.log(-mu) * mu ** (k - 1) / math.factorial(k - 1)


def _polylog_ratio(k: int, v, wp: int) -> "mp.mpf":
    """R_k(v) = Li_k(z)/z, z = 1 - e^(-v), for v > 0 carrying at most wp bits
    and integer k >= 1, at working precision wp.  R_1 = v/z.  For k >= 2 and
    v <= ln 2 it is the generating function sum_n c_n v^n (_gf_coefficients)
    with no exponential: R_k >= 1 is within 2^-(wp+4) relative, unrounded.
    Beyond, it is Li_k(1 - q)/(1 - q), q = e^(-v), whose sum rounds
    at entry and exit relative to Li_k >= 1/2 and z >= 1/2.  So R_k is within
    4 units of 2^-wp (2.6 at worst against mpmath.polylog over k in {2, 3, 5},
    v from 1e-300 to 200 and wp from 96 to 332)."""
    with mp.workprec(wp):
        if k == 1:
            return v / _kernel_z(v, wp)
        if v <= mp.ln2:
            return _coefficient_sum(_gf_coefficients(k, wp), v, 0, wp)
        q = mp.exp(-v)
        return _polylog_near_one(k, q, wp) / (1 - q)


def polylog_on_kernel(k: int, v) -> "mp.mpf":
    """Li_k(1 - e^(-v)), v >= 0, integer k >= 1, at the current precision from
    one exponential: z R_k for v <= ln 2, the expansion around z = 1 beyond."""
    v = mp.mpf(v)
    if k < 1 or v < 0:
        raise ValueError("polylog_on_kernel needs k >= 1 and v >= 0")
    if k == 1 or v == 0:
        return v  # Li_1(z) = -ln(1 - z) = v
    if v > mp.ln2:
        return _polylog_near_one(k, mp.exp(-v), mp.prec)
    return _kernel_z(v, mp.prec) * _polylog_ratio(k, v, mp.prec)


# ---------------------------------------------------------------------------
# The shared series engine, over the reduced argument y = (x+beta)/L.

def _difference_series_sum(
    k: int, s: Fraction, y: Fraction, precision: int, max_terms: int, shift: int, threshold
) -> NumericResult:
    """sum_{m>=0} (m+1)^(-k) sum_{j=0}^{m+d} (-1)^j C(m+d, j) f(j)
    with d = shift and f(j) = (y + j)^(-s), for rational y > 0 and s > 0.

    The inner sum at d = m + shift is the d-th difference g_d(0) of the
    table g_0 = f, g_i(j) = g_(i-1)(j) - g_(i-1)(j+1); `edge` keeps its
    anti-diagonal g_i(d-i), so each outer term costs one power and d
    subtractions.  Stops at the first index where three consecutive outer
    terms fall below `threshold` in absolute value; raises
    NonConvergenceError, its last_term in the units of this sum, when
    max_terms is hit first.

    The differences cancel about d bits, so the working precision carries a
    cancellation budget; once d would exceed it the sum restarts from the
    first term at a larger budget.  The reported error adds a power-law tail
    fit to a rounding bound in units u_d = 2^(d + f0_bits - wp), |f| <=
    2^f0_bits.  The loop runs e = 4 + bitlen(ceil s) bits above wp.  With
    lam = max(|ln y|, ln(y + d)), each f(j) is off by at most
    s (1 + lam) + 3 units of 2^(f0_bits - wp - e): y + j rounds once (s
    units); s rounds once (s lam units, none for a dyadic s); the power takes
    its logarithm 10 bits sharper (s lam 2^-10 units) and rounds (2 units);
    the truncation to the integer scale 2^-(wp + e - f0_bits) adds 1.  The
    integer differences are exact, so g_d, |g_d| <= 2^(d + f0_bits), is off
    by at most (lam + 3) u_d / 16; its conversion, division by (m+1)^k and
    addition to a total below 2^(d+1+f0_bits) add 1 + 1 + 2 units.  As u_d
    doubles with d, the n + 1 terms up to d = n + shift, n >= 2 at the
    stop, carry less than 2 (4 + (lam + 3)/16) u_d <= 16 u_d <=
    (n+2)(d+2) u_d for lam <= 61: the bound of the former mpf table (entry
    i carried (i+1) units), now looser.
    """
    cancel_budget = 96
    extra = 4 + math.ceil(s).bit_length()
    while True:
        wp = precision + GUARD_BITS + 24 + cancel_budget
        with mp.workprec(wp + extra):
            neg_s = -_rat_mpf(s)
            # f decreases in j, so f(0) bounds it.  top_d is the largest
            # difference order the cancellation budget covers.
            f0_bits = mp.mag(mp.convert(y) ** neg_s)
            top_d = cancel_budget + GUARD_BITS - 40 - max(f0_bits, 0)
            scale = wp + extra - f0_bits  # edge entries are integers at 2^-scale
            edge: list[int] = []
            total = mp.mpf(0)
            recent: dict[int, object] = {}
            consecutive = 0
            for d in range(shift + max_terms):
                m = d - shift
                if m >= 0 and d > top_d:
                    break
                f = mp.convert(y + d) ** neg_s
                g = to_fixed(f._mpf_, scale)
                for i, e in enumerate(edge):
                    edge[i], g = g, e - g
                edge.append(g)
                if m < 0:
                    continue
                term = mp.ldexp(g, -scale) / (m + 1) ** k
                total += term
                recent[m] = abs(term)
                recent.pop(m - 16, None)
                consecutive = consecutive + 1 if abs(term) < threshold else 0
                if consecutive == 3:
                    rounding = mp.ldexp((m + 2) * (d + 2), d + f0_bits - wp)
                    return NumericResult(total, _tail_fit(recent, m, threshold) + rounding, m + 1)
            else:
                raise NonConvergenceError(
                    "series did not meet the stopping rule within %d terms" % max_terms,
                    terms=max_terms,
                    last_term=recent.get(max_terms - 1),
                )
        cancel_budget = max(2 * (d + max(f0_bits, 0)) + 80, 2 * cancel_budget)


def _scaled_series(query: ZetaQuery, shift: int = 0, stop_in_y: bool = False) -> NumericResult:
    """L^(-s) times the engine's sum, at shift, over y = (x+beta)/L.  The
    engine stops on its own terms below 2^-(p+8) when stop_in_y, else on the
    scaled ones below it, that is on its own below 2^-(p+8) L^s.

    This runs at wp = p + 48 bits.  L^(-s) is taken at wp + g bits, 2^g > 4N,
    N = ceil(s) (|l| + 4), l = bitlen(num L) - bitlen(den L), so that
    |ln L| < (|l| + 1) ln 2; there L rounds (s units after the power), s
    rounds (s |ln L|), the power's logarithm is 10 bits sharper
    (s |ln L| 2^-10) and its exponential rounds (2): fewer than N units, so
    L^(-s) is within 2^-(wp+2) relative.  The product rounds once, so value
    is within |value| 2^-(wp-1) of L^(-s) times the sum; the error adds
    |value| 2^-(wp-2), which also covers the rounding of the scaled engine
    error while that stays below |value|.
    """
    p, s, L = query.precision, query.s, query.params.log_sum
    wp = p + GUARD_BITS + 16
    N = math.ceil(s) * (abs(L.numerator.bit_length() - L.denominator.bit_length()) + 4)
    with mp.workprec(wp + N.bit_length() + 2):
        scale = _rat_mpf(L) ** -_rat_mpf(s)
    with mp.workprec(wp):
        threshold = mp.ldexp(1, -(p + 8))
        if not stop_in_y:
            threshold /= scale
        y = (query.x + query.params.beta) / L
        res = _difference_series_sum(query.k, s, y, p, query.max_terms, shift, threshold)
        value = res.value * scale
        error = res.error * scale + abs(value) * mp.ldexp(1, -(wp - 2))
        return NumericResult(value, error, res.terms)


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
    """Direct summation of the expanded series, stopped on its own terms."""
    query.require_numeric()
    if query.params.beta <= 0:
        raise ValueError("xi_series needs beta > 0 (xi_reduced covers beta = 0)")
    return _scaled_series(query)


def xi_reduced(query: ZetaQuery) -> NumericResult:
    """L^(-s) times the classical series at y = (x+beta)/L, stopped on its terms."""
    query.require_numeric()
    return _scaled_series(query, stop_in_y=True)


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


def _quadrature_kernel(query: ZetaQuery, kp: int):
    """kernel(t) = R_k(Lt) exp((s-1) ln t - (x+beta) t), the integrand of
    the module docstring, positive, at precision kp; for k >= 2 and
    Lt <= ln 2, R_k takes no exponential (_polylog_ratio): a node takes one.

    The exponent is rounded at kp + 8 + size bits, where 2^size bounds both
    its terms (|ln t| <= |mag t| + 3 since t > 2^(mag t - 3), and
    (x+beta) t <= 2^(mag(x+beta) + mag t)); s - 1 and x + beta enter as exact
    integer numerators and denominators, so the logarithm, two products, two
    quotients and the sum leave it within 4 2^-(kp+8) absolute, and the
    exponential within 2^-(kp+5) plus its own rounding.
    """
    k = query.k
    s1 = query.s - 1
    y = query.x + query.params.beta
    with mp.workprec(kp):
        L_m = _rat_mpf(query.params.log_sum)
        y_mag = mp.mag(_rat_mpf(y))
        s1_mag = mp.mag(_rat_mpf(s1)) if s1 else None

    def kernel(t):
        if t <= 0:
            return mp.mpf(0)
        ratio = _polylog_ratio(k, mp.fmul(L_m, t, prec=kp), kp)
        m = mp.mag(t)
        size = y_mag + m
        if s1:
            size = max(size, s1_mag + (abs(m) + 3).bit_length())
        with mp.workprec(kp + 8 + max(size, 0)):
            expo = -(y.numerator * t) / y.denominator
            if s1:
                expo += s1.numerator * mp.ln(t) / s1.denominator
            return ratio * mp.exp(expo)

    return kernel


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

    The kernel R_k(Lt) exp((s-1) ln t - (x+beta) t) (_quadrature_kernel)
    runs at kp = wp + 20, the precision mp.quad evaluates it at, and is
    positive, so the relative error of each node carries over to the sum; a
    node takes one exponential for k >= 2 and Lt <= ln 2, two otherwise.
    In units of 2^-kp: R_k is within 4 (_polylog_ratio); v = Lt is within 1,
    which moves R_k(v) by at most 1 more, since |v R_k'(v)/R_k(v)| < 1; the
    exponential is within 2^-5 plus its rounding, 1; the product adds 1.
    So a node is within 8 units, 2^-(wp+17), and mp.quad's sums at kp keep
    that.  The rest adds at most 4 units of 2^-wp: mp.quad's result and
    the sum of the two integrals round once each at wp, and Gamma(s) and
    the quotient by it within one unit each, so the
    rounding term |value| 2^-(wp-6) of the reported error covers the
    kernel's error with room to spare; the rule's own error and the tail are
    the other two terms.
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
        kernel = _quadrature_kernel(query, wp + 20)
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


# The numeric routes by name: the CLI's --route choices, the first its
# default, and verify's ZE2 checks each later route against the first.
ROUTES = {"series": xi_series, "reduced": xi_reduced, "quadrature": xi_quadrature}


# ---------------------------------------------------------------------------
# Exact (negative-integer s) entry points.

def xi_exact_neg(k: int, n: int, params: Params, x: Fraction) -> Fraction:
    """xi_k(-n, x; a, b) = (-1)^n B_n^(k)(-x; a, b), exact: the series
    truncates at m = n, and its inner sum is the weight W_{x+beta,L}(n, m)."""
    if n < 0:
        raise ValueError("xi_exact_neg expects n >= 0")
    return _weight_sum(n, k, Fraction(x) + params.beta, params.log_sum)


def difference_exact(k: int, n: int, params: Params, x: Fraction) -> Fraction:
    """xi_k(-n, x + alpha + beta) - xi_k(-n, x), exact: the one-step-higher
    difference series, which truncates at m = n-1 with inner sums
    W_{x+beta,L}(n, m+1)."""
    if n < 0:
        raise ValueError("difference_exact expects n >= 0")
    return -_weight_sum(n, k, Fraction(x) + params.beta, params.log_sum, 1)


def difference_series(query: ZetaQuery) -> NumericResult:
    """Numeric xi_k(s, x+alpha+beta) - xi_k(s, x) via the one-step-higher
    difference series (same stopping rule as xi_series)."""
    query.require_numeric()
    res = _scaled_series(query, 1)
    return NumericResult(-res.value, res.error, res.terms)


def raabe_poly(n: int, k: int, params: Params, x: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the polynomial mean-value identity, exact.

    Left: integral_0^(alpha+beta) B_n^(k)(x - w; a, b) dw.
    Right: 1/(n+1) sum_{m=0}^{n} (m+1)^(-k) sum_{j=0}^{m+1} (-1)^j C(m+1,j)
           (x - j alpha - (j+1) beta)^(n+1),
    whose inner sums are (-1)^(n+1) W_{beta-x,L}(n+1, m+1).
    """
    if n < 0:
        raise ValueError("raabe_poly expects n >= 0")
    x = Fraction(x)
    L = params.log_sum
    anti = gpb_explicit(n, k, params).poly.antiderivative()
    lhs = anti(x) - anti(x - L)
    rhs = (-1) ** (n + 1) * _weight_sum(n + 1, k, params.beta - x, L, 1) / (n + 1)
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
    finer = replace(query, precision=min(p + 8, 4096))  # ZetaQuery's cap
    with mp.workprec(wp):
        L_m = _rat_mpf(query.params.log_sum)

        def integrand(w):
            res = _scaled_series(replace(finer, x=query.x + Fraction(*to_rational(w._mpf_))))
            integrand_errors.append(res.error)
            return res.value

        # The integrand resolves about 2^-(p+16); a finer rule target only adds degrees.
        with mp.workprec(p + 16):
            lhs_value, lhs_quad_err = mp.quad(
                integrand, [0, L_m], method="gauss-legendre", error=True, maxdegree=7
            )
        lhs_err = lhs_quad_err + L_m * (max(integrand_errors) if integrand_errors else 0)
        lhs = NumericResult(lhs_value, lhs_err, len(integrand_errors))
        rhs_raw = _scaled_series(replace(query, s=query.s - 1), 1)
        scale = 1 / (_rat_mpf(query.s) - 1)
        rhs = NumericResult(rhs_raw.value * scale, rhs_raw.error * abs(scale), rhs_raw.terms)
        return lhs, rhs
