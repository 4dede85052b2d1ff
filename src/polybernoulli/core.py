"""Classical poly-Bernoulli numbers and polynomials (exact rationals).

B_n^(k)(x) = sum_{m=0}^{n} (m+1)^(-k) sum_{j=0}^{m} (-1)^j C(m,j) (x-j)^n for
any integer k, with B_n^(k) = B_n^(k)(0).  One integer weight
W_{P,Q}(n, m) = sum_j (-1)^j C(m,j) (P + jQ)^n, grown by
W(n, m) = (P + mQ) W(n-1, m) - mQ W(n-1, m-1) (_next_weights), is behind every
value; W_{0,1}(n, m) = (-1)^m m! S(n, m).  Transposed onto (m+1)^(-k) it
yields the numbers B_n^(k)(0; a, b) = (-1)^n sum_m W_{beta,L}(n, m) / (m+1)^k,
L = alpha + beta, Kaneko's at (beta, L) = (0, 1) (_kaneko_numbers).  One row
cache of at most _PB_ROWS_MAX rows, keyed by (k, beta, L), keeps each row with
its stream: the polynomials are Appell sums over a row, the Bernoulli
polynomials those of B_m = (-1)^m B_m^(1), and the numeric zeta coefficients
B_n^(k)/n! read a stream that no row keeps.  Directly, the cached (1, 1)
triangle gives the negative index as the Gram sum of two rows, which counts
lonesum (0,1)-matrices (lonesum_count() enumerates them two ways as its
oracle); one fresh W_{x+beta,L} row gives exact zeta at s = -n (_weight_sum),
and read from column 1 its difference and mean-value identities;
symmetrized.sym_closed grows its own (P, Q) rows.  The literal double sum
is a test oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterator

from .exact_arith import binomial
from .polynomials import Poly1

__all__ = [
    "pb_poly",
    "pb_number",
    "pb_number_neg_closed",
    "pb_number_recurrence",
    "bernoulli_poly",
    "bernoulli_numbers",
    "lonesum_count",
]

_ROW_LOCK = threading.RLock()
# (k, beta, L): row of B_n^(k)(0; a, b), its stream; the oldest row goes once
# _PB_ROWS_MAX are held (a CLI table touches at most 129 values of k).
_PB_ROWS: dict[tuple, tuple[list[Fraction], Iterator[Fraction]]] = {}
_PB_ROWS_MAX = 256
_UNIT_WEIGHTS: list[tuple[int, ...]] = []  # n: W_{1,1}(n, m) = (-1)^m m! S(n+1,m+1)
_BERNOULLI_ROW: list[Fraction] = []


def _grown_row(row: list, n: int, entry: Callable[[int], Fraction]) -> list:
    """row, grown in place by entry(i) to at least n + 1 entries.  Rows are
    only appended to, under a lock, so a returned row keeps its values."""
    with _ROW_LOCK:
        while len(row) <= n:
            row.append(entry(len(row)))
    return row


def _next_weights(prev: tuple[int, ...], P: int, Q: int) -> tuple[int, ...]:
    # W(n, m) = sum_j (-1)^j C(m,j) (P + jQ)^n from row n - 1:
    # W(n, m) = (P + mQ) W(n-1, m) - mQ W(n-1, m-1), W(n-1, n) = 0.
    prev += (0,)
    return tuple((P + m * Q) * w - m * Q * prev[m - 1] for m, w in enumerate(prev))


def _unit_weights(n: int) -> list[tuple[int, ...]]:
    """Rows 0..n, at least, of W_{1,1}(p, m) = (-1)^m m! S(p+1, m+1), m <= p."""
    rows = _UNIT_WEIGHTS
    return _grown_row(rows, n, lambda p: _next_weights(rows[p - 1], 1, 1) if p else (1,))


def _weight_sum(n: int, k: int, P: Fraction, Q: Fraction, shift: int = 0) -> Fraction:
    """sum_{m<=n-shift} W_{P,Q}(n, m+shift) / (m+1)^k, exact: P and Q run as
    integers over their common denominator D, and the sum over
    lcm(1..n+1)^max(k,0) D^n."""
    D = math.lcm(Fraction(P).denominator, Fraction(Q).denominator)
    P, Q = int(P * D), int(Q * D)
    row: tuple[int, ...] = (1,)
    for _ in range(n):
        row = _next_weights(row, P, Q)
    den = math.lcm(*range(1, n + 2)) ** max(k, 0)
    weights = enumerate(row[shift:])
    total = sum(w * (den // (m + 1) ** k if k > 0 else (m + 1) ** -k) for m, w in weights)
    return Fraction(total, den * D**n)


def _kaneko_numbers(k: int, beta: Fraction = 0, L: Fraction = 1) -> Iterator[Fraction]:
    """B_0^(k)(0; a, b), B_1^(k)(0; a, b), ... with beta = ln b, L = ln ab, by
    the weight recurrence transposed onto e_m = (m+1)^(-k): B_n = b(n, 0) with
    b(0, m) = e_m and b(i, m) = (m+1) L b(i-1, m+1) - (beta + mL) b(i-1, m).
    beta and L run as integers over their common denominator D, so b(i, m)
    carries D^i.  After e_n, edge[i] holds the anti-diagonal b(i, n-i), as
    integers over den = lcm(1..n+1)^k (1 when k <= 0), so a number costs n
    products by small integers and one gcd."""
    D = math.lcm(Fraction(beta).denominator, Fraction(L).denominator)
    beta, L = int(beta * D), int(L * D)
    edge: list[int] = []
    root = den = 1
    for n in itertools.count():
        if k > 0:
            grown = math.lcm(root, n + 1)
            if grown > root:
                scale = (grown // root) ** k
                edge = [b * scale for b in edge]
                root, den = grown, den * scale
            b = den // (n + 1) ** k
        else:
            b = (n + 1) ** -k
        for i, prev in enumerate(edge, 1):
            m = n - i
            edge[i - 1], b = b, (m + 1) * L * b - (beta + m * L) * prev
        edge.append(b)
        yield Fraction(b, den * D**n)


def _pb_row(n: int, k: int, beta: Fraction = 0, L: Fraction = 1) -> list[Fraction]:
    """B_0^(k)(0; a, b) .. B_n^(k)(0; a, b), beta = ln b, L = ln ab; the
    defaults give the classical row (the cached row may hold more entries)."""
    if n < 0:
        raise ValueError("poly-Bernoulli index n must be >= 0, got %d" % n)
    key = (k, beta, L)
    with _ROW_LOCK:
        if key not in _PB_ROWS and len(_PB_ROWS) >= _PB_ROWS_MAX:
            del _PB_ROWS[next(iter(_PB_ROWS))]
        row, numbers = _PB_ROWS.setdefault(key, ([], _kaneko_numbers(k, beta, L)))
    return _grown_row(row, n, lambda i: next(numbers))


def _appell(row, n: int) -> list[Fraction]:
    """Coefficients, lowest degree first, of sum_i C(n,i) row[n-i] x^i."""
    return [binomial(n, i) * row[n - i] for i in range(n + 1)]


def pb_poly(n: int, k: int) -> Poly1:
    """B_n^(k)(x), exact, any integer k, n >= 0."""
    return Poly1(_appell(_pb_row(n, k), n))


def pb_number(n: int, k: int) -> Fraction:
    """B_n^(k) = B_n^(k)(0)."""
    return _pb_row(n, k)[n]


def pb_number_neg_closed(n: int, k: int) -> int:
    """B_n^(-k) for n, k >= 0: sum_j (j!)^2 S(n+1,j+1) S(k+1,j+1), the Gram
    sum sum_m W_{1,1}(n, m) W_{1,1}(k, m) of two cached weight rows."""
    if n < 0 or k < 0:
        raise ValueError("pb_number_neg_closed expects n, k >= 0")
    rows = _unit_weights(max(n, k))
    return sum(map(operator.mul, rows[n], rows[k]))


def pb_number_recurrence(n: int, k: int) -> Fraction:
    """Row-n recurrence check value.

    (i+1) B_i^(k) = B_i^(k-1) - sum_{m=1}^{i-1} C(i, m-1) B_m^(k), run up one
    local row from B_0^(k) to i = n; the upper index k has no base case of
    its own, so the k-1 inputs come from the Kaneko row.
    """
    previous = _pb_row(n, k - 1)
    row = [pb_number(0, k)]
    for i in range(1, n + 1):
        acc = previous[i] - sum(binomial(i, m - 1) * row[m] for m in range(1, i))
        row.append(acc / (i + 1))
    return row[n]


def bernoulli_poly(n: int) -> Poly1:
    """Bernoulli polynomial t e^(xt)/(e^t - 1), the Appell sum over
    B_m = (-1)^m B_m^(1) (convention B_1(0) = -1/2)."""
    row = _pb_row(n, 1)
    return Poly1(_appell([(-1) ** m * b for m, b in enumerate(row[: n + 1])], n))


def _tangent_numbers(m: int) -> list[int]:
    """T_1 .. T_m, tan x = sum_k T_k x^(2k-1)/(2k-1)!, by the integer-only
    in-place recurrence of Brent and Harvey ("Fast computation of Bernoulli,
    tangent and secant numbers", 2011)."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : m + 1]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n (B_1 = -1/2), with B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from the tangent numbers T_k."""
    if n < 0:
        raise ValueError("Bernoulli index n must be >= 0, got %d" % n)
    row = _BERNOULLI_ROW
    if len(row) <= n:
        # At least double the row, so that callers stepping one index up at a
        # time recompute the tangent numbers only O(log n) times.
        top = max(n, 2 * len(row))
        tangents = _tangent_numbers(top // 2)

        def entry(i: int) -> Fraction:
            if i < 2:
                return Fraction(1) if i == 0 else Fraction(-1, 2)
            if i % 2:
                return Fraction(0)
            k = i // 2
            return Fraction((-1) ** (k - 1) * i * tangents[k - 1], 4**k * (4**k - 1))

        _grown_row(row, top, entry)
    return row[: n + 1]


def _is_staircase_orderable(rows: tuple[int, ...], width: int) -> bool:
    # No pair of rows may be set-incomparable: a 2x2 identity or anti-identity
    # submatrix exists exactly when some row pair has a 1-column each way.
    for i, ri in enumerate(rows):
        for rj in rows[i + 1 :]:
            if (ri & ~rj) and (rj & ~ri):
                return False
    return True


def lonesum_count(n: int, k: int) -> int:
    """Number of n x k (0,1)-matrices uniquely determined by row/column sums.

    Two independent characterizations are enumerated and must agree: matrices
    whose (row-sum vector, column-sum vector) class is a singleton, and
    matrices avoiding both 2x2 permutation submatrices.  Guarded to
    n*k <= 20.
    """
    if n < 0 or k < 0:
        raise ValueError("lonesum_count expects n, k >= 0")
    if n * k > 20:
        raise ValueError("lonesum_count enumeration guarded to n*k <= 20")
    signatures: dict[tuple, int] = {}
    staircase = 0
    for rows in itertools.product(range(1 << k), repeat=n):
        rowsums = tuple(r.bit_count() for r in rows)
        colsums = tuple(
            sum((r >> c) & 1 for r in rows) for c in range(k)
        )
        sig = (rowsums, colsums)
        signatures[sig] = signatures.get(sig, 0) + 1
        if _is_staircase_orderable(rows, k):
            staircase += 1
    singletons = sum(1 for c in signatures.values() if c == 1)
    if singletons != staircase:
        raise AssertionError(
            "lonesum characterizations disagree at (%d, %d): %d vs %d"
            % (n, k, singletons, staircase)
        )
    return staircase
