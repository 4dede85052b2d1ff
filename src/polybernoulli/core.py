"""Classical poly-Bernoulli numbers and polynomials (exact rationals).

B_n^(k)(x) = sum_{m=0}^{n} (m+1)^(-k) sum_{j=0}^{m} (-1)^j C(m,j) (x-j)^n for
any integer k, with B_n^(k) = B_n^(k)(0).  Values come from one cached row of
numbers per k, Kaneko's B_n^(k) = (-1)^n sum_m (-1)^m m! S(n,m) / (m+1)^k:
the polynomials are its Appell sums sum_i C(n,i) B_{n-i}^(k) x^i, the
Bernoulli polynomials those of B_m = (-1)^m B_m^(1); the literal double sum is
a test oracle.  Negative upper index has the closed Stirling form
sum_j (j!)^2 S(n+1,j+1) S(k+1,j+1), which counts lonesum (0,1)-matrices;
lonesum_count() enumerates those matrices two independent ways and is the
combinatorial oracle for that family.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .exact_arith import binomial, stirling2
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
_PB_ROWS: dict[int, list[Fraction]] = {}
_BERNOULLI_ROWS: dict[None, list[Fraction]] = {}  # one row


def _grown_row(rows: dict, key, n: int, entry: Callable[[int], Fraction]) -> list:
    """rows[key], grown in place by entry(i) to at least n + 1 entries.  Rows
    are only appended to, under a lock, so a returned row keeps its values."""
    row = rows.setdefault(key, [])
    with _ROW_LOCK:
        while len(row) <= n:
            row.append(entry(len(row)))
    return row


def _kaneko(n: int, k: int) -> Fraction:
    # (-1)^n sum_m (-1)^m m! S(n,m) / (m+1)^k, summed as integers over the
    # common denominator lcm(1..n+1)^k (1 when k <= 0): one gcd per number.
    lcm = math.lcm(*range(1, n + 2)) if k > 0 else 1
    num = sum(
        (-1) ** m * math.factorial(m) * stirling2(n, m)
        * ((lcm // (m + 1)) ** k if k > 0 else (m + 1) ** -k)
        for m in range(n + 1)
    )
    return Fraction((-1) ** n * num, lcm ** max(k, 0))


def _pb_row(n: int, k: int) -> list[Fraction]:
    """B_0^(k) .. B_n^(k) (the cached row may hold more entries)."""
    if n < 0:
        raise ValueError("poly-Bernoulli index n must be >= 0, got %d" % n)
    return _grown_row(_PB_ROWS, k, n, lambda i: _kaneko(i, k))


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
    """B_n^(-k) for n, k >= 0: sum_j (j!)^2 S(n+1,j+1) S(k+1,j+1)."""
    if n < 0 or k < 0:
        raise ValueError("pb_number_neg_closed expects n, k >= 0")
    acc = 0
    fact = 1  # j!
    for j in range(min(n, k) + 1):
        if j:
            fact *= j
        acc += fact * fact * stirling2(n + 1, j + 1) * stirling2(k + 1, j + 1)
    return acc


@lru_cache(maxsize=None)
def pb_number_recurrence(n: int, k: int) -> Fraction:
    """Row-n recurrence check value.

    (n+1) B_n^(k) = B_n^(k-1) - sum_{m=1}^{n-1} C(n, m-1) B_m^(k); the upper
    index k has no base case of its own, so the k-1 input comes from the
    Kaneko row while the row recursion grounds at n = 0.
    """
    if n == 0:
        return pb_number(0, k)
    acc = pb_number(n, k - 1)
    for m in range(1, n):
        acc -= binomial(n, m - 1) * pb_number_recurrence(m, k)
    return acc / (n + 1)


def bernoulli_poly(n: int) -> Poly1:
    """Bernoulli polynomial t e^(xt)/(e^t - 1), the Appell sum over
    B_m = (-1)^m B_m^(1) (convention B_1(0) = -1/2)."""
    row = _pb_row(n, 1)
    return Poly1(_appell([(-1) ** m * b for m, b in enumerate(row[: n + 1])], n))


def _bernoulli(m: int) -> Fraction:
    # C(m+1, j) recurrence over the entries already in the row; independent
    # of bernoulli_poly and cheap enough for the Euler-Maclaurin tails that
    # need a few hundred of them.
    if m == 0:
        return Fraction(1)
    row = _BERNOULLI_ROWS[None]
    return -sum(binomial(m + 1, j) * row[j] for j in range(m)) / (m + 1)


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n (B_1 = -1/2), via the classical binomial-sum recurrence."""
    if n < 0:
        raise ValueError("Bernoulli index n must be >= 0, got %d" % n)
    return _grown_row(_BERNOULLI_ROWS, None, n, _bernoulli)[: n + 1]


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
