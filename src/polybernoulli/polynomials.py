"""Dense univariate and sparse bivariate polynomials over exact rationals.

Poly1 stores coefficients lowest-degree first with trailing zeros trimmed, so
equal polynomials compare equal.  Poly2 stores a {(xdeg, ydeg): coeff} map with
zero coefficients dropped.  Both accept ints/Fractions as scalars on either
side of + and *, which lets sum() run with its default start value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

__all__ = ["Poly1", "Poly2"]

_Scalar = (int, Fraction)


class Poly1:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def x(cls) -> "Poly1":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly1":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Scalar):
            other = Poly1((other,))
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly1", self.coeffs))

    def __add__(self, other) -> "Poly1":
        if isinstance(other, _Scalar):
            other = Poly1((other,))
        if not isinstance(other, Poly1):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> "Poly1":
        return Poly1([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly1) else Poly1((-Fraction(other),)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Poly1":
        if isinstance(other, _Scalar):
            return Poly1([c * other for c in self.coeffs])
        if not isinstance(other, Poly1):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly1()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly1(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly1":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly1((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, _Scalar) else 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly1") -> "Poly1":
        """self(inner(x)), exact."""
        acc = Poly1()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly1((c,))
        return acc

    def derivative(self) -> "Poly1":
        return Poly1([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly1":
        """Antiderivative with zero constant term."""
        return Poly1([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def __repr__(self) -> str:
        return "Poly1(%r)" % (self.coeffs,)


class Poly2:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            c = Fraction(c)
            if c:
                data[(i, j)] = data.get((i, j), Fraction(0)) + c
                if not data[(i, j)]:
                    del data[(i, j)]
        self.terms: dict[tuple[int, int], Fraction] = data

    @classmethod
    def constant(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def from_x(cls, p: Poly1) -> "Poly2":
        return cls({(i, 0): c for i, c in enumerate(p.coeffs)})

    @classmethod
    def from_y(cls, p: Poly1) -> "Poly2":
        return cls({(0, j): c for j, c in enumerate(p.coeffs)})

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def sorted_terms(self) -> Iterator[tuple[int, int, Fraction]]:
        for (i, j) in sorted(self.terms):
            yield i, j, self.terms[(i, j)]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Scalar):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("Poly2", tuple(sorted(self.terms.items()))))

    def __add__(self, other) -> "Poly2":
        if isinstance(other, _Scalar):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        data = dict(self.terms)
        for key, c in other.terms.items():
            data[key] = data.get(key, Fraction(0)) + c
        return Poly2(data)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _Scalar):
            other = Poly2.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, _Scalar):
            return Poly2({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, Poly2):
            return NotImplemented
        data: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                key = (i1 + i2, j1 + j2)
                data[key] = data.get(key, Fraction(0)) + a * b
        return Poly2(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly2.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x, y) -> Fraction:
        # Horner's rule in y within each x-degree, then in x, on integers:
        # with x = a/b, y = c/d and D the coefficients' common denominator,
        # D b^I d^J p(x, y) is an integer, so the result takes one gcd.
        (a, b), (c, d) = Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio()
        den = math.lcm(*(q.denominator for q in self.terms.values()))
        top_i = max((i for i, _ in self.terms), default=0)
        top_j = max((j for _, j in self.terms), default=0)
        acc = 0
        for i in range(top_i, -1, -1):
            inner = 0
            for j in range(top_j, -1, -1):
                q = self.terms.get((i, j), 0)
                inner = inner * c + q.numerator * (den // q.denominator) * d ** (top_j - j)
            acc = acc * a + inner * b ** (top_i - i)
        return Fraction(acc, den * b**top_i * d**top_j)

    def swap_vars(self) -> "Poly2":
        """p(y, x)."""
        return Poly2({(j, i): c for (i, j), c in self.terms.items()})

    def __repr__(self) -> str:
        return "Poly2(%r)" % (dict(sorted(self.terms.items())),)
