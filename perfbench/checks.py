"""Output checks: each CLI output against oracle.py, never against saved output.

check(request, exit_code, stdout, zeta_refs) returns None when the output is
right and a Problem (a kind and a one-line reason) when it is not.  Besides
the values, tables are held to the structural properties the families must
have: the duality B_n^(-k) = B_k^(-n) and C_n^(-m)(x, y) = C_m^(-n)(y, x),
degree n, and the leading coefficient (1, gamma^n, or L^-(n+m) for the
x^n y^m term).  A numeric error_bound must also lie within the routes'
precision contract.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

import oracle

VERIFY_SUITES = 12

# Kinds of problem.  A request with a known fault is excused only for the
# kind it names; any other problem with it still makes the run incorrect.
EXIT_CODE = "exit code"
UNREADABLE = "unreadable output"
MISMATCH = "mismatch"
LOOSE_ERROR_BOUND = "error_bound above the route tolerance"
OUTSIDE_ERROR_BOUND = "value outside its error_bound"


class Problem(NamedTuple):
    kind: str
    detail: str


class Mismatch(Exception):
    def __init__(self, detail: str, kind: str = MISMATCH):
        super().__init__(detail)
        self.kind = kind


def _expect(ok: bool, what: str, kind: str = MISMATCH) -> None:
    if not ok:
        raise Mismatch(what, kind)


def _index_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi or lo) + 1)


def _params(o: dict) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(o.get("alpha", "1")), Fraction(o.get("beta", "0")), Fraction(o.get("gamma", "1"))


def _table_rows(kind: str, stdout: str, fmt: str) -> list[tuple[int, int, object]]:
    """(n, k-or-m, payload) per entry; payload is the value string, the
    coefficient strings, or the {(i, j): coeff string} terms."""
    if fmt == "csv":  # the lists ask for CSV of polynomial tables only
        rows = list(csv.reader(io.StringIO(stdout)))
        _expect(rows[0] == ["n", "k", "coeffs"], f"csv header {rows[0]}")
        return [(int(n), int(k), cell.split(";") if cell else []) for n, k, cell in rows[1:]]
    report = json.loads(stdout)
    _expect(report["kind"] == kind, f"kind {report['kind']}")
    if kind == "sym-poly":
        return [(e["n"], e["m"], {(i, j): c for i, j, c in e["terms"]}) for e in report["entries"]]
    key = "value" if kind in ("pb-number", "pb-neg") else "coeffs"
    return [(e["n"], e["k"], e[key]) for e in report["entries"]]


def _check_table(o: dict, stdout: str) -> None:
    kind = o["kind"]
    alpha, beta, gamma = _params(o)
    L = alpha + beta
    second = "m" if kind == "sym-poly" else "k"
    ns, ks = _index_range(o["n"]), _index_range(o.get(second, "0"))
    rows = _table_rows(kind, stdout, o.get("format", "json"))
    _expect([(n, k) for n, k, _ in rows] == [(n, k) for n in ns for k in ks], "entry indices")
    by_index = {(n, k): payload for n, k, payload in rows}
    for n, k, payload in rows:
        where = f"{kind} entry ({n}, {k})"
        if kind in ("pb-number", "pb-neg"):
            ref = oracle.pb_number(n, -k if kind == "pb-neg" else k)
            _expect(Fraction(payload) == ref, f"{where} value {payload} != {ref}")
            dual = by_index.get((k, n))
            if kind == "pb-neg" and dual is not None:
                _expect(dual == payload, f"{where} breaks B_n^(-k) = B_k^(-n)")
        elif kind in ("gpb-poly", "gpb-c-poly"):
            g = gamma if kind == "gpb-c-poly" else Fraction(1)
            coeffs = [Fraction(c) for c in payload]
            _expect(len(coeffs) == n + 1, f"{where} has degree {len(coeffs) - 1}")
            _expect(coeffs[-1] == g**n, f"{where} leading coefficient {coeffs[-1]}")
            _expect(coeffs == oracle.gpb_coeffs(n, k, alpha, beta, g), f"{where} coefficients")
        else:
            terms = {key: Fraction(c) for key, c in payload.items()}
            _expect(max(i for i, _ in terms) == n and max(j for _, j in terms) == k, f"{where} degrees")
            _expect(terms.get((n, k)) == 1 / L ** (n + k), f"{where} leading coefficient")
            _expect(terms == oracle.sym_terms(n, k, alpha, beta), f"{where} terms")
            dual = by_index.get((k, n))
            if dual is not None:
                swapped = {(j, i): c for (i, j), c in dual.items()}
                _expect(swapped == payload, f"{where} breaks C_n^(-m)(x,y) = C_m^(-n)(y,x)")


def _check_exact_eval(o: dict, report: dict) -> None:
    kind = o["kind"]
    alpha, beta, gamma = _params(o)
    x = Fraction(o["x"])
    _expect(report["mode"] == "exact", "mode")
    value = Fraction(report["value"])
    if kind == "sym-poly":
        ref = oracle.sym_at(oracle.sym_terms(int(o["n"]), int(o["m"]), alpha, beta), x, Fraction(o["y"]))
    elif kind == "zeta":
        # xi_k(-n, x; a, b) = (-1)^n B_n^(k)(-x; a, b)
        n = -int(Fraction(o["s"]))
        ref = (-1) ** n * oracle.poly_at(oracle.gpb_coeffs(n, int(o["k"]), alpha, beta), -x)
    else:
        g = gamma if kind == "gpb-c-poly" else Fraction(1)
        ref = oracle.poly_at(oracle.gpb_coeffs(int(o["n"]), int(o["k"]), alpha, beta, g), x)
    _expect(value == ref, f"value {value} != {ref}")


def _check_numeric_eval(o: dict, report: dict, line: str, zeta_refs: dict) -> None:
    p = int(o["precision"])
    _expect(report["mode"] == "numeric", "mode")
    _expect(report["route"] == o["route"] and report["precision"] == p, "route or precision echo")
    ref_entry = zeta_refs.get(line)
    _expect(ref_entry is not None, "no stored reference; run make_zeta_refs.py")
    with mp.workprec(p + 192):
        ref = mp.mpf(ref_entry["value"])
        value = mp.mpf(report["value"])
        bound = mp.mpf(report["error_bound"])
        half_unit = mp.mpf(10) ** Decimal(report["value"]).as_tuple().exponent / 2
        # The routes' precision contract, taken at the reference so that it
        # does not rest on the program's own value.
        tolerance = max(mp.ldexp(1, -(p + 4)), abs(ref) * mp.ldexp(1, -(p - 8)))
        _expect(
            bound <= tolerance,
            f"error_bound {report['error_bound']} > tolerance {mp.nstr(tolerance, 3)}",
            LOOSE_ERROR_BOUND,
        )
        gap = abs(value - ref)
        _expect(
            gap <= bound + half_unit,
            f"|value - ref| = {mp.nstr(gap, 3)} > error_bound {report['error_bound']}"
            f" + half unit {mp.nstr(half_unit, 3)}",
            OUTSIDE_ERROR_BOUND,
        )


def _check_verify(o: dict, report: dict) -> None:
    _expect(report["seed"] == int(o["seed"]), "seed echo")
    _expect(len(report["suites"]) == VERIFY_SUITES, f"{len(report['suites'])} suites")
    _expect(report["ok"] is True, "verify reports ok = false")
    _expect(all(s["failed"] == 0 for s in report["suites"]), "a suite has failed cases")


def check(request, exit_code: int, stdout: str, zeta_refs: dict) -> Problem | None:
    if exit_code != 0:
        return Problem(EXIT_CODE, str(exit_code))
    o = request.options()
    try:
        if request.argv[0] == "table":
            _check_table(o, stdout)
        elif request.argv[0] == "verify":
            _check_verify(o, json.loads(stdout))
        elif o["kind"] == "zeta" and Fraction(o["s"]) > 0:
            _check_numeric_eval(o, json.loads(stdout), request.line, zeta_refs)
        else:
            _check_exact_eval(o, json.loads(stdout))
    except Mismatch as exc:
        return Problem(exc.kind, str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Problem(UNREADABLE, repr(exc))
    return None
