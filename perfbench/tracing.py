"""Per-layer tracing from outside the package.

install() replaces the package's public functions, wherever a module or the
verify suite table holds them, with wrappers that record self time and call
counts.  It runs only in the forked child that serves one traced request, so
untraced requests never see a wrapper.

Self time is a span's duration minus the time of the traced spans inside it;
a function with no span of its own counts toward its nearest traced caller.
The root span is the whole `cli.main` call, so `cli.self_s` is the CLI's own
work: argument parsing, format_rat and the JSON/CSV rendering.  Spans are
folded into per-metric totals as they close instead of kept one by one:
Poly1 multiplication alone opens more than ten thousand per round.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (metric, module, names) for spans.  A name may be "Class.method".
SPANS = [
    ("core.pb_poly_s", "core", ["pb_poly"]),
    ("core.pb_number_neg_closed_s", "core", ["pb_number_neg_closed"]),
    ("core.bernoulli_numbers_s", "core", ["bernoulli_numbers"]),
    ("core.lonesum_count_s", "core", ["lonesum_count"]),
    ("generalized.gpb_explicit_s", "generalized", ["gpb_explicit"]),
    ("generalized.gpb_explicit_c_s", "generalized", ["gpb_explicit_c"]),
    (
        "generalized.oracles_s",
        "generalized",
        [
            "scale_from_classical",
            "gen_bernoulli_poly",
            "recurrence_I",
            "recurrence_II",
            "appell_derivative",
            "addition_formula",
            "multiplication_theorem",
            "power_sum",
        ],
    ),
    ("symmetrized.sym_def_s", "symmetrized", ["sym_def"]),
    ("symmetrized.oracles_s", "symmetrized", ["sym_closed", "sym_gf_oracle"]),
    ("polynomials.poly1_mul_s", "polynomials", ["Poly1.__mul__"]),
    ("polynomials.poly2_mul_s", "polynomials", ["Poly2.__mul__"]),
    ("exact_arith.stirling2_s", "exact_arith", ["stirling2"]),
    (
        "polyseries.oracles_s",
        "polyseries",
        [
            "ps_exp",
            "ps_one_minus_exp",
            "polylog_series",
            "polylog_neg_rational",
            "gf_kernel",
            "ps2_outer",
            "ps2_lonesum_kernel",
            "Series1.__add__",
            "Series1.__sub__",
            "Series1.__rsub__",
            "Series1.__neg__",
            "Series1.__mul__",
            "Series1.__truediv__",
            "Series1.compose",
            "Series1.integrate_over_t",
            "Series2.__add__",
            "Series2.__mul__",
        ],
    ),
    ("zeta.xi_series_s", "zeta", ["xi_series"]),
    ("zeta.xi_reduced_s", "zeta", ["xi_reduced"]),
    ("zeta.xi_quadrature_s", "zeta", ["xi_quadrature"]),
    ("zeta.polylog_on_kernel_s", "zeta", ["polylog_on_kernel"]),
    ("zeta.hurwitz_zeta_s", "zeta", ["hurwitz_zeta"]),
    ("zeta.xi_exact_neg_s", "zeta", ["xi_exact_neg"]),
    (
        "zeta.identities_s",
        "zeta",
        ["difference_exact", "difference_series", "raabe_poly", "raabe_numeric"],
    ),
]

# Call counts: metric -> (module, name).  binomial gets a counter only, so
# its time stays with its callers.
CALLS = {
    "core.pb_poly_calls": ("core", "pb_poly"),
    "generalized.gpb_explicit_calls": ("generalized", "gpb_explicit"),
    "polynomials.poly1_mul_calls": ("polynomials", "Poly1.__mul__"),
    "exact_arith.binomial_calls": ("exact_arith", "binomial"),
    "zeta.polylog_on_kernel_calls": ("zeta", "polylog_on_kernel"),
}

# The series routes whose NumericResult.terms add up to zeta.series_terms.
SERIES_ROUTES = ["xi_series", "xi_reduced", "difference_series"]

ROOT = "cli.self_s"
SELF_METRICS = [ROOT] + [metric for metric, _, _ in SPANS] + ["verify.exact_suites_s", "verify.zeta_suites_s"]
COUNT_METRICS = list(CALLS) + ["zeta.series_terms", "caches.entries"]


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._inner = [0.0]  # traced time inside each open span

    def span(self, metric: str, fn, count: str | None = None, terms: bool = False):
        self_s, counts, inner = self.self_s, self.counts, self._inner
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[metric] += elapsed - inner.pop()
                inner[-1] += elapsed
                if count:
                    counts[count] += 1
            if terms:
                counts["zeta.series_terms"] += result.terms
            return result

        return traced

    def counter(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "polybernoulli"]


def _lookup(module, name: str):
    owner, _, attr = name.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


def _rebind(wrappers: dict) -> None:
    """Replace every module global, module-level dict entry (the verify
    suite table) and class attribute that holds a wrapped original; wrappers
    maps id(original) to its wrapper."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, key, wrappers[id(value)])
            elif isinstance(value, dict) and key != "__builtins__":
                for dkey, dvalue in list(value.items()):
                    if id(dvalue) in wrappers:
                        value[dkey] = wrappers[id(dvalue)]
            elif isinstance(value, type) and value.__module__.startswith("polybernoulli"):
                for attr, member in list(vars(value).items()):
                    if id(member) in wrappers:
                        setattr(value, attr, wrappers[id(member)])


def lru_caches() -> list:
    """Every functools cache bound at module level in the package."""
    seen = {}
    for module in _package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                seen[id(value)] = value
    return list(seen.values())


def install(tracer: Tracer) -> None:
    import polybernoulli.cli  # noqa: F401  (loads every module)

    mods = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
    call_of = {(mod, name): metric for metric, (mod, name) in CALLS.items()}
    wrappers = {}
    for metric, mod, names in SPANS:
        for name in names:
            owner, attr = _lookup(mods[mod], name)
            original = getattr(owner, attr)
            count = call_of.pop((mod, name), None)
            terms = mod == "zeta" and name in SERIES_ROUTES
            wrappers[id(original)] = tracer.span(metric, original, count, terms)
    for (mod, name), metric in call_of.items():
        owner, attr = _lookup(mods[mod], name)
        original = getattr(owner, attr)
        wrappers[id(original)] = tracer.counter(metric, original)
    for suite, fn in mods["verify"].SUITES.items():
        kind = "zeta" if suite.startswith("zeta-") else "exact"
        wrappers[id(fn)] = tracer.span(f"verify.{kind}_suites_s", fn)
    _rebind(wrappers)
