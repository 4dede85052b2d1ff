import os
import random
import tempfile
from fractions import Fraction
from math import comb

from polybernoulli import Params, Poly1

# Child processes (the CLI run as a subprocess) import the code under test
# from this checkout's src, not from whatever copy is installed.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Hypothesis caches the literals of local modules under ./.hypothesis even with
# database=None; that cache goes to the temporary directory instead.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "polybernoulli-hypothesis")
)

CLASSICAL = Params(Fraction(1), Fraction(0))


def rand_rat(rng: random.Random, lo=-8, hi=8, den_max=6, nonzero=False) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den_max))
        if q != 0 or not nonzero:
            return q


def rand_params(rng: random.Random, positive=False) -> Params:
    """Random rational (alpha, beta) with alpha+beta != 0."""
    while True:
        if positive:
            alpha = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            beta = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        else:
            alpha = rand_rat(rng, -5, 5, 4)
            beta = rand_rat(rng, -5, 5, 4)
        if alpha + beta != 0:
            return Params(alpha, beta)


def literal_double_sum(n, k, params=CLASSICAL) -> Poly1:
    """The defining double sum, expanded term by term:

        sum_{m=0}^{n} (m+1)^(-k) sum_{j=0}^{m} (-1)^j C(m,j)
            (gamma x - j alpha - (j+1) beta)^n

    with each power expanded by the binomial theorem.  No summation swap, no
    number table, no caching: the oracle for every exact polynomial family.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        weight = Fraction(m + 1) ** -k
        for j in range(m + 1):
            shift = j * alpha + (j + 1) * beta
            outer = weight * (-1) ** j * comb(m, j)
            for i in range(n + 1):
                coeffs[i] += outer * comb(n, i) * gamma**i * (-shift) ** (n - i)
    return Poly1(coeffs)


def literal_shifted_sum(k, params, x, m_top, step, power) -> Fraction:
    """The truncated zeta series in rationals, term by term:

        sum_{m=0}^{m_top} (m+1)^(-k) sum_{j=0}^{m+step} (-1)^j C(m+step, j)
            (x + j alpha + (j+1) beta)^power

    the oracle of xi_exact_neg (step 0), difference_exact and the right side
    of raabe_poly (step 1).
    """
    x = Fraction(x)
    acc = Fraction(0)
    for m in range(m_top + 1):
        inner = Fraction(0)
        for j in range(m + step + 1):
            base = x + j * params.alpha + (j + 1) * params.beta
            inner += (-1) ** j * comb(m + step, j) * base**power
        acc += Fraction(m + 1) ** -k * inner
    return acc
