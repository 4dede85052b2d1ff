"""Self-verification suites over the package invariants.

Each suite draws a few seeded-random cases, evaluates an identity along two
independent routes, and records both sides.  The registry maps suite names to
the invariant bullet ids they exercise; INVARIANTS is the full manifest, and
the union of `covers` over all suites must equal it (a unit test enforces
this, so an invariant cannot silently drop out of runtime verification).

Suites are deterministic in the seed: the same seed yields the same cases,
the same serialized sides, and the same report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from mpmath import mp

from . import core, exact_arith, generalized, polyseries, symmetrized, zeta
from .exact_arith import format_rat
from .generalized import Params
from .polynomials import Poly1

__all__ = ["INVARIANTS", "SUITES", "COVERS", "run_suites", "CaseResult", "SuiteResult"]

# The invariant manifest.  Ids are grouped by module: EA exact_arith,
# PS polyseries, CO core, GE generalized, SY symmetrized, ZE zeta, CL cli.
INVARIANTS = {
    "EA1": "binomial coefficients satisfy the Pascal recurrence",
    "EA2": "Stirling set numbers: alternating sum equals triangle recurrence",
    "EA3": "Eulerian rows sum to r! and are symmetric",
    "EA4": "rational formatting round-trips through parse",
    "PS1": "exp(c t) * exp(-c t) = 1 in the series ring",
    "PS2": "negative-order polylog rational form matches the defining series",
    "PS3": "generating-function kernel coefficients match the explicit polynomials",
    "PS4": "bivariate kernel slice matches the double Stirling-number form",
    "CO1": "row recurrence in k reproduces the explicit polynomials",
    "CO2": "negative-index symmetry B_n^(-k) = B_k^(-n)",
    "CO3": "double-Stirling closed form equals the explicit negative-index values",
    "CO4": "binary-matrix count equals B_n^(-k) via two independent enumerations",
    "CO5": "two-parameter polynomials at alpha=1, beta=0 reduce to the classical ones",
    "CO6": "Bernoulli numbers equal the constant terms of the Bernoulli polynomials",
    "GE1": "rescaled classical polynomials equal the explicit two-parameter ones",
    "GE2": "index-lowering recurrence reproduces the explicit polynomials",
    "GE3": "convolution recurrence (k >= 1) reproduces the explicit polynomials",
    "GE4": "derivative lowers degree: d/dx B_n = n B_(n-1) (Appell chain)",
    "GE5": "addition formula agrees with polynomial composition",
    "GE6": "multiplication theorem agrees with polynomial composition",
    "GE7": "power-sum formula matches brute-force summation",
    "GE8": "two-base Bernoulli polynomials match their generating series",
    "SY1": "symmetrized polynomials satisfy the x<->y duality",
    "SY2": "symmetrized closed form equals the defining sum",
    "SY3": "symmetrized generating-function slice equals the defining sum",
    "SY4": "symmetrized specializations recover the negative-index numbers",
    "ZE1": "xi at s=-n interpolates the polynomials up to sign",
    "ZE2": "series, reduced-argument, and quadrature routes agree",
    "ZE3": "k=1 values match s*zeta(s+1, y) via the Hurwitz oracle",
    "ZE4": "difference identity holds exactly at s=-n and numerically at real s",
    "ZE5": "mean-value identity holds exactly at s=-n and numerically at s>1",
    "ZE6": "raising the precision does not raise the reported error estimate",
    "ZE7": "reported error estimates cover the deviation from a sharper rerun",
    "CL1": "JSON and CSV renderings carry identical data",
    "CL2": "rendering the same request twice is byte-identical",
    "CL3": "parameter and size violations map to the documented exit codes",
}


@dataclass
class CaseResult:
    description: str
    lhs: str
    rhs: str
    ok: bool

    def as_dict(self) -> dict:
        return {
            "case": self.description,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
        }


@dataclass
class SuiteResult:
    name: str
    covers: list
    cases: list = field(default_factory=list)

    def check(self, description: str, lhs, rhs, ok=None) -> None:
        if ok is None:
            ok = lhs == rhs
        self.cases.append(CaseResult(description, str(lhs), str(rhs), bool(ok)))

    @property
    def passed(self) -> int:
        return sum(c.ok for c in self.cases)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.cases)

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "covers": list(self.covers),
            "passed": self.passed,
            "failed": self.failed,
            "cases": [c.as_dict() for c in self.cases],
        }


def _rand_rat(rng: random.Random, lo=1, hi=8, allow_zero=False) -> Fraction:
    num = rng.randint(0 if allow_zero else lo, hi)
    den = rng.randint(1, hi)
    return Fraction(num, den)


def _rand_params(rng: random.Random) -> Params:
    while True:
        alpha = _rand_rat(rng)
        beta = _rand_rat(rng)
        if alpha + beta != 0:
            return Params(alpha, beta)


def _poly_str(poly) -> str:
    return "[" + ", ".join(format_rat(c) for c in poly.coeffs) + "]"


def _poly2_str(poly) -> str:
    return "{" + ", ".join(
        f"({i},{j}): {format_rat(c)}" for i, j, c in poly.sorted_terms()
    ) + "}"


# ---------------------------------------------------------------------------
# Suites.  Each is registered once, with the invariant ids it covers; the
# registration builds its SuiteResult, so the report's "covers" and COVERS
# cannot drift apart.

SUITES: dict[str, Callable[[random.Random], SuiteResult]] = {}
COVERS: dict[str, list[str]] = {}


def _suite(name: str, *ids: str):
    """Register body(rng, out) as suite name covering the invariants ids."""

    def register(body: Callable[[random.Random, SuiteResult], None]):
        def run(rng: random.Random) -> SuiteResult:
            out = SuiteResult(name, list(ids))
            body(rng, out)
            return out

        SUITES[name] = run
        COVERS[name] = list(ids)
        return run

    return register


@_suite("exact-arith", "EA1", "EA2", "EA3", "EA4")
def suite_exact_arith(rng: random.Random, out: SuiteResult) -> None:
    n = rng.randint(5, 24)
    k = rng.randint(1, n - 1)
    out.check(
        f"Pascal recurrence at C({n},{k})",
        exact_arith.binomial(n, k),
        exact_arith.binomial(n - 1, k - 1) + exact_arith.binomial(n - 1, k),
    )
    sn = rng.randint(2, 12)
    sk = rng.randint(1, sn)
    out.check(
        f"Stirling triangle at S({sn},{sk})",
        exact_arith.stirling2(sn, sk),
        sk * exact_arith.stirling2(sn - 1, sk) + exact_arith.stirling2(sn - 1, sk - 1),
    )
    r = rng.randint(1, 8)
    row = [exact_arith.eulerian(r, j) for j in range(r)]
    out.check(f"Eulerian row {r} sums to {r}!", sum(row), math.factorial(r))
    out.check(f"Eulerian row {r} is symmetric", row, row[::-1])
    q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    out.check(
        f"round-trip {q}", exact_arith.parse_rat(exact_arith.format_rat(q)), q
    )


@_suite("series", "PS1", "PS2", "PS3", "PS4")
def suite_series(rng: random.Random, out: SuiteResult) -> None:
    c = _rand_rat(rng, lo=1, hi=5)
    order = rng.randint(4, 10)
    prod = polyseries.ps_exp(c, order) * polyseries.ps_exp(-c, order)
    out.check(
        f"exp({c} t) exp(-{c} t) = 1 through order {order}",
        list(prod.coeffs),
        [Fraction(1)] + [Fraction(0)] * order,
    )
    r = rng.randint(0, 5)
    out.check(
        f"negative polylog order -{r} as rational function",
        list(polyseries.polylog_neg_rational(r, 10).coeffs),
        list(polyseries.polylog_series(-r, 10).coeffs),
    )
    pars = _rand_params(rng)
    k = rng.randint(-3, 3)
    n = rng.randint(0, 6)
    x0 = _rand_rat(rng, allow_zero=True)
    kern = polyseries.gf_kernel(k, pars.alpha, pars.beta, x0, n + 1)
    out.check(
        f"kernel coefficient n={n}, k={k}, x={x0}, {pars}",
        kern.coefficient(n) * math.factorial(n),
        generalized.gpb_explicit(n, k, pars).poly(x0),
    )
    bn = rng.randint(0, 5)
    bk = rng.randint(0, 5)
    kern2 = polyseries.ps2_lonesum_kernel(bn + 1, bk + 1)
    lhs2 = kern2.coefficient(bn, bk) * math.factorial(bn) * math.factorial(bk)
    out.check(
        f"bivariate kernel slice ({bn},{bk})",
        lhs2,
        sum(
            Fraction(math.factorial(j)) ** 2
            * exact_arith.stirling2(bn, j)
            * exact_arith.stirling2(bk, j)
            for j in range(min(bn, bk) + 1)
        ),
    )


@_suite("core-recurrence", "CO1", "CO5", "CO6")
def suite_core_recurrence(rng: random.Random, out: SuiteResult) -> None:
    for _ in range(3):
        n = rng.randint(0, 8)
        k = rng.randint(-3, 4)
        out.check(
            f"row recurrence B_{n}^({k})",
            core.pb_number_recurrence(n, k),
            core.pb_number(n, k),
        )
    # At alpha = 1, beta = 0 the row is core's classical one, so the reduction is
    # read against Li_k(1 - e^(-t)) e^(xt) / (1 - e^(-t)) at a fixed x.
    n = rng.randint(0, 8)
    k = rng.randint(-3, 4)
    x0 = Fraction(1, 3)
    out.check(
        f"classical reduction n={n}, k={k} at x={x0} vs generating function",
        generalized.gpb_explicit(n, k, Params(Fraction(1), Fraction(0))).poly(x0),
        polyseries.gf_kernel(k, 1, 0, x0, n + 1).coefficient(n) * math.factorial(n),
    )
    m = rng.randint(0, 10)
    out.check(
        f"Bernoulli number {m} vs polynomial constant term",
        core.bernoulli_numbers(m)[m],
        core.bernoulli_poly(m).coefficient(0),
    )


@_suite("lonesum", "CO2", "CO3", "CO4")
def suite_lonesum(rng: random.Random, out: SuiteResult) -> None:
    n = rng.randint(0, 6)
    k = rng.randint(0, 6)
    out.check(
        f"symmetry B_{n}^(-{k}) = B_{k}^(-{n})",
        core.pb_number(n, -k),
        core.pb_number(k, -n),
    )
    out.check(
        f"closed form at n={n}, k={k}",
        core.pb_number_neg_closed(n, k),
        core.pb_number(n, -k),
    )
    mn = rng.randint(0, 4)
    mk = rng.randint(0, 4)
    out.check(
        f"matrix count {mn}x{mk}",
        core.lonesum_count(mn, mk),
        core.pb_number(mn, -mk),
    )


@_suite("generalized", "GE1", "GE2", "GE3")
def suite_generalized(rng: random.Random, out: SuiteResult) -> None:
    pars = _rand_params(rng)
    n = rng.randint(0, 7)
    k = rng.randint(-3, 4)
    out.check(
        f"rescaled classical n={n}, k={k}, {pars}",
        _poly_str(generalized.scale_from_classical(n, k, pars).poly),
        _poly_str(generalized.gpb_explicit(n, k, pars).poly),
    )
    out.check(
        f"index-lowering recurrence n={n}, k={k}",
        _poly_str(generalized.recurrence_II(n, k, pars).poly),
        _poly_str(generalized.gpb_explicit(n, k, pars).poly),
    )
    kp = rng.randint(1, 4)
    pos = Params(abs(pars.alpha) + Fraction(1, 3), abs(pars.beta))
    out.check(
        f"convolution recurrence n={n}, k={kp}",
        _poly_str(generalized.recurrence_I(n, kp, pos).poly),
        _poly_str(generalized.gpb_explicit(n, kp, pos).poly),
    )


@_suite("appell", "GE4", "GE5", "GE6")
def suite_appell(rng: random.Random, out: SuiteResult) -> None:
    pars = _rand_params(rng)
    n = rng.randint(1, 8)
    k = rng.randint(-3, 4)
    out.check(
        f"Appell derivative n={n}, k={k}",
        _poly_str(generalized.appell_derivative(n, k, pars)),
        _poly_str(generalized.gpb_explicit(n - 1, k, pars).poly * n),
    )
    y = _rand_rat(rng, allow_zero=True)
    shifted = generalized.gpb_explicit(n, k, pars).poly.compose(Poly1((y, Fraction(1))))
    out.check(
        f"addition formula n={n}, k={k}, y={y}",
        _poly_str(generalized.addition_formula(n, k, pars, y)),
        _poly_str(shifted),
    )
    factor = rng.randint(1, 4)
    scaled = generalized.gpb_explicit(n, k, pars).poly.compose(
        Poly1((Fraction(0), Fraction(factor)))
    )
    out.check(
        f"multiplication theorem n={n}, k={k}, m={factor}",
        _poly_str(generalized.multiplication_theorem(n, k, pars, factor)),
        _poly_str(scaled),
    )


@_suite("power-sum", "GE7", "GE8")
def suite_power_sum(rng: random.Random, out: SuiteResult) -> None:
    n = rng.randint(1, 6)
    m_top = rng.randint(0, 12)
    ln_b = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    out.check(
        f"power sum n={n}, top={m_top}, base ln={ln_b}",
        generalized.power_sum(m_top, n, ln_b),
        sum(Fraction(j) ** n for j in range(1, m_top + 1)),
    )
    ln_a = Fraction(rng.randint(-3, 1))
    ln_b2 = ln_a + Fraction(rng.randint(1, 3))
    order = rng.randint(1, 6)
    x0 = _rand_rat(rng, allow_zero=True)
    # Series oracle: t e^(x0 t) / (e^(ln_b t) - e^(ln_a t)), coefficient n
    # times n! is the two-base Bernoulli polynomial at x0.
    depth = order + 2
    num = polyseries.Series1([0, 1] + [0] * depth) * polyseries.ps_exp(x0, depth)
    den = polyseries.ps_exp(ln_b2, depth) - polyseries.ps_exp(ln_a, depth)
    series = num / den
    out.check(
        f"two-base Bernoulli n={order} at ({ln_a},{ln_b2}), x={x0}",
        series.coefficient(order) * math.factorial(order),
        generalized.gen_bernoulli_poly(order, ln_a, ln_b2)(x0),
    )


@_suite("duality", "SY1", "SY2", "SY3", "SY4")
def suite_duality(rng: random.Random, out: SuiteResult) -> None:
    pars = _rand_params(rng)
    n = rng.randint(0, 4)
    m = rng.randint(0, 4)
    lhs = symmetrized.sym_closed(n, m, pars)
    rhs = symmetrized.sym_closed(m, n, pars).swap_vars()
    out.check(f"duality (n,m)=({n},{m}) at {pars}", _poly2_str(lhs), _poly2_str(rhs))
    out.check(
        f"closed form (n,m)=({n},{m})",
        _poly2_str(symmetrized.sym_def(n, m, pars)),
        _poly2_str(lhs),
    )
    gf = symmetrized.sym_gf_oracle(pars, n + 1, m + 1)
    slice_poly = gf.coefficient(n, m) * (math.factorial(n) * math.factorial(m))
    out.check(f"generating-function slice ({n},{m})", _poly2_str(slice_poly), _poly2_str(lhs))
    classical = Params(Fraction(1), Fraction(0))
    c_poly = symmetrized.sym_closed(n, m, classical)
    out.check(
        f"classical origin value ({n},{m})",
        c_poly(Fraction(0), Fraction(0)),
        core.pb_number(n, -m),
    )


@_suite("interpolation", "ZE1", "ZE4", "ZE5")
def suite_interpolation(rng: random.Random, out: SuiteResult) -> None:
    pars = _rand_params(rng)
    n = rng.randint(0, 7)
    k = rng.randint(-3, 4)
    x = _rand_rat(rng, allow_zero=True)
    out.check(
        f"interpolation n={n}, k={k}, x={x}",
        zeta.xi_exact_neg(k, n, pars, x),
        (-1) ** n * generalized.gpb_explicit(n, k, pars).poly(-x),
    )
    L = pars.log_sum
    out.check(
        f"exact difference n={n}, k={k}, x={x}",
        zeta.difference_exact(k, n, pars, x),
        zeta.xi_exact_neg(k, n, pars, x + L) - zeta.xi_exact_neg(k, n, pars, x),
    )
    lhs, rhs = zeta.raabe_poly(n, k, pars, x)
    out.check(f"exact mean value n={n}, k={k}, x={x}", lhs, rhs)


def _seeded_query(rng: random.Random, precision=96) -> zeta.ZetaQuery:
    k = rng.randint(1, 3)
    s = Fraction(rng.randint(1, 8), 2)
    alpha = Fraction(rng.randint(1, 8), 4)
    beta = Fraction(rng.randint(1, 8), 4)
    pars = Params(alpha, beta)
    y = Fraction(rng.randint(72, 140), 4)
    x = y * pars.log_sum - beta
    return zeta.ZetaQuery(k=k, s=s, x=x, params=pars, precision=precision)


@_suite("zeta-numeric", "ZE2", "ZE3", "ZE6", "ZE7")
def suite_zeta_numeric(rng: random.Random, out: SuiteResult) -> None:
    q = _seeded_query(rng)
    (first, a), *others = [(name, route(q)) for name, route in zeta.ROUTES.items()]
    with mp.workprec(q.precision + 16):
        tol = abs(a.value) * mp.mpf(1e-10)
        for name, b in others:
            out.check(
                f"{first} vs {name} at {q.k},{q.s},{q.x}",
                mp.nstr(a.value, 25),
                mp.nstr(b.value, 25),
                ok=abs(a.value - b.value) <= tol,
            )
    q1 = zeta.ZetaQuery(k=1, s=q.s, x=q.x, params=q.params, precision=q.precision)
    r1 = zeta.xi_series(q1)
    y = (q1.x + q1.params.beta) / q1.params.log_sum
    hz, _err = zeta.hurwitz_zeta(q1.s + 1, y, q1.precision + 16)
    with mp.workprec(q1.precision + 24):
        L_m = mp.mpf(q1.params.log_sum.numerator) / q1.params.log_sum.denominator
        s_m = mp.mpf(q1.s.numerator) / q1.s.denominator
        ref = L_m ** (-s_m) * s_m * hz
        out.check(
            f"k=1 chain at s={q1.s}",
            mp.nstr(r1.value, 25),
            mp.nstr(ref, 25),
            ok=abs(r1.value - ref) <= abs(ref) * mp.mpf(1e-20),
        )
    lo = zeta.xi_series(
        zeta.ZetaQuery(k=q.k, s=q.s, x=q.x, params=q.params, precision=48)
    )
    out.check(
        "error estimate shrinks from p=48 to p=96",
        mp.nstr(a.error, 8),
        mp.nstr(lo.error, 8),
        ok=a.error <= lo.error,
    )
    sharper = zeta.xi_series(
        zeta.ZetaQuery(k=q.k, s=q.s, x=q.x, params=q.params, precision=q.precision + 48)
    )
    out.check(
        "estimate covers deviation from sharper rerun",
        mp.nstr(abs(a.value - sharper.value), 8),
        mp.nstr(a.error + sharper.error, 8),
        ok=abs(a.value - sharper.value) <= a.error + sharper.error,
    )


@_suite("zeta-identities", "ZE4", "ZE5")
def suite_zeta_identities(rng: random.Random, out: SuiteResult) -> None:
    q = _seeded_query(rng, precision=64)
    d = zeta.difference_series(q)
    shifted = zeta.ZetaQuery(
        k=q.k, s=q.s, x=q.x + q.params.log_sum, params=q.params, precision=q.precision
    )
    direct = zeta.xi_series(shifted).value - zeta.xi_series(q).value
    with mp.workprec(96):
        out.check(
            f"numeric difference at {q.k},{q.s}",
            mp.nstr(d.value, 20),
            mp.nstr(direct, 20),
            ok=abs(d.value - direct) <= d.error + mp.ldexp(1, -q.precision + 8),
        )
    s_gt1 = q.s if q.s > 1 else q.s + Fraction(3, 2)
    q2 = zeta.ZetaQuery(k=q.k, s=s_gt1, x=q.x, params=q.params, precision=48)
    lhs, rhs = zeta.raabe_numeric(q2)
    with mp.workprec(96):
        out.check(
            f"numeric mean value at {q2.k},{q2.s}",
            mp.nstr(lhs.value, 15),
            mp.nstr(rhs.value, 15),
            ok=abs(lhs.value - rhs.value) <= (lhs.error + rhs.error) * 4 + mp.ldexp(1, -40),
        )


@_suite("cli-format", "CL1", "CL2", "CL3")
def suite_cli_format(rng: random.Random, out: SuiteResult) -> None:
    from . import cli

    argv = [
        "table", "--kind", "pb-number", "--n", "0:4", "--k=-2:2", "--format", "json",
    ]
    first = cli.render_to_string(argv)
    second = cli.render_to_string(argv)
    out.check("JSON rendering is byte-identical across runs", len(first), len(second), ok=first == second)
    csv_text = cli.render_to_string(
        ["table", "--kind", "pb-number", "--n", "0:4", "--k=-2:2", "--format", "csv"]
    )
    import csv as _csv
    import io
    import json as _json

    data = _json.loads(first)
    rows = list(_csv.reader(io.StringIO(csv_text)))
    body = rows[1:]
    json_cells = [
        (str(e["n"]), str(e["k"]), e["value"]) for e in data["entries"]
    ]
    csv_cells = [(r[0], r[1], r[2]) for r in body]
    out.check("CSV carries the JSON data", json_cells, csv_cells)
    import contextlib

    probe_log = io.StringIO()  # the probes are supposed to fail; keep stderr clean
    with contextlib.redirect_stderr(probe_log):
        oversize = cli.main(["table", "--kind", "pb-number", "--n", "0:99", "--k", "1"])
        empty = cli.main(["table", "--kind", "pb-number", "--n", "5:1", "--k", "1"])
        unknown = cli.main(["verify", "--suite", "no-such-suite"])
    out.check("oversize n exits with code 3", oversize, 3)
    out.check("empty range exits with code 3", empty, 3)
    out.check("unknown suite exits with code 2", unknown, 2)


def run_suites(names: list | None, seed: int) -> dict:
    """Run the requested suites (all when names is None) with one seeded
    generator per suite; returns a JSON-ready report without timing data."""
    chosen = list(SUITES) if names is None else list(names)
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise KeyError("unknown suite(s): " + ", ".join(unknown))
    results = []
    for name in chosen:
        rng = random.Random(f"{seed}:{name}")
        results.append(SUITES[name](rng))
    return {
        "seed": seed,
        "suites": [r.as_dict() for r in results],
        "ok": all(r.failed == 0 for r in results),
    }
