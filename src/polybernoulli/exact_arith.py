"""Exact integer/rational kernel: binomials, Stirling and Eulerian tables.

Rationals are stdlib ``fractions.Fraction`` throughout the package; this module
adds the serialization used at the CLI boundary ("p/q", or "p" when the
denominator is 1, sign always on the numerator) and two oracle tables: Stirling
for ``verify`` and the tests (production reads ``core``'s weight triangle),
Eulerian for the ``polyseries`` cross-checks.

Conventions:

* ``binomial(n, k)`` is 0 outside ``0 <= k <= n`` (n must be >= 0).
* ``stirling2(n, m)`` counts set partitions of an n-set into m blocks,
  S(0, 0) = 1.  Values come from the alternating sum
  ``(-1)^m/m! * sum_l (-1)^l C(m,l) l^n`` and every freshly grown table row is
  cross-checked against the triangle recurrence
  ``S(n, m) = m S(n-1, m) + S(n-1, m-1)``.
* ``eulerian(r, j)`` counts permutations of {1..r} with exactly j ascents,
  via ``sum_{l=0}^{j} (-1)^l C(r+1,l) (j-l+1)^r``.  The l = j+1 term of the
  textbook-alternating form is (j-l+1)^r = 0^r and is dropped, which keeps
  every r >= 1 value identical and gives the empty permutation its single
  ascent-free arrangement: eulerian(0, 0) = 1.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "Rat",
    "binomial",
    "stirling2",
    "eulerian",
    "CombCache",
    "format_rat",
    "parse_rat",
    "inv_int_pow",
]

Rat = Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial: n must be >= 0, got %d" % n)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _stirling2_sum(n: int, m: int) -> int:
    # (-1)^m/m! sum_{l=0}^m (-1)^l C(m,l) l^n, with 0^0 = 1.
    acc = 0
    for l in range(m + 1):
        acc += (-1) ** l * math.comb(m, l) * l**n
    num = (-1) ** m * acc
    den = math.factorial(m)
    if num % den:
        raise ArithmeticError("stirling2 alternating sum not divisible by m!")
    return num // den


class CombCache:
    """Lazily grown Stirling/Eulerian tables.

    Rows are appended under a lock and never mutated afterwards, so concurrent
    readers are safe once a row exists.  Every new Stirling row computed from
    the alternating sum is verified against the triangle recurrence before it
    is published.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stirling: list[list[int]] = [[1]]  # row n holds S(n, 0..n)
        self._eulerian: list[list[int]] = [[1]]  # row r holds <r, 0..max(r-1,0)>

    def stirling2(self, n: int, m: int) -> int:
        if n < 0 or m < 0:
            raise ValueError("stirling2: indices must be >= 0")
        if m > n:
            return 0
        self._grow_stirling(n)
        return self._stirling[n][m]

    def eulerian(self, r: int, j: int) -> int:
        if r < 0:
            raise ValueError("eulerian: r must be >= 0")
        if j < 0 or j > max(r - 1, 0):
            return 0
        self._grow_eulerian(r)
        return self._eulerian[r][j]

    def _grow_stirling(self, n: int) -> None:
        if n < len(self._stirling):
            return
        with self._lock:
            while len(self._stirling) <= n:
                row_n = len(self._stirling)
                prev = self._stirling[row_n - 1]
                row = [_stirling2_sum(row_n, m) for m in range(row_n + 1)]
                for m in range(row_n + 1):
                    left = m * (prev[m] if m < row_n else 0)
                    diag = prev[m - 1] if m >= 1 else 0
                    if row[m] != left + diag:
                        raise ArithmeticError(
                            "stirling2 cross-check failed at (%d, %d)" % (row_n, m)
                        )
                self._stirling.append(row)

    def _grow_eulerian(self, r: int) -> None:
        if r < len(self._eulerian):
            return
        with self._lock:
            while len(self._eulerian) <= r:
                row_r = len(self._eulerian)
                row = []
                for j in range(max(row_r - 1, 0) + 1):
                    acc = 0
                    for l in range(j + 1):
                        acc += (-1) ** l * math.comb(row_r + 1, l) * (j - l + 1) ** row_r
                    row.append(acc)
                self._eulerian.append(row)


_CACHE = CombCache()


def stirling2(n: int, m: int) -> int:
    return _CACHE.stirling2(n, m)


def eulerian(r: int, j: int) -> int:
    return _CACHE.eulerian(r, j)


def format_rat(q: Fraction) -> str:
    """"p/q" in lowest terms, "p" when the denominator is 1, sign on p."""
    return str(q)


def parse_rat(text: str) -> Fraction:
    """Inverse of format_rat; also accepts plain integer strings."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational %r" % text) from exc


def inv_int_pow(base: int, k: int) -> Fraction:
    """base^(-k) as an exact rational, valid for any integer k."""
    if base <= 0:
        raise ValueError("inv_int_pow: base must be positive")
    if k >= 0:
        return Fraction(1, base**k)
    return Fraction(base ** (-k))
