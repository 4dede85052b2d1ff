"""Command-line interface: tables, single evaluations, verification suites.

Exit codes:
    0  success
    1  one or more verification cases failed
    2  malformed request (bad flag values, unknown suites)
    3  size limits exceeded (n, |k|, m above 64, precision above 4096, empty
       ranges, or a table of more than MAX_TABLE_VALUES output values)
    4  a numeric route failed to converge or missed its error contract

Output is deterministic: the same command line yields byte-identical stdout.
Timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from mpmath import mp

from . import verify as verify_mod
from .core import pb_number, pb_number_neg_closed
from .exact_arith import format_rat, parse_rat
from .generalized import Params, gpb_explicit, gpb_explicit_c
from .symmetrized import sym_closed
from .zeta import ROUTES, NonConvergenceError, ToleranceError, ZetaQuery, xi_exact_neg

MAX_INDEX = 64
# Output values per table: 1 per number, n+1 per gpb-* entry, (n+1)(m+1) per
# sym-poly entry.  The full 65 x 129 number grid (8,385) fits.
MAX_TABLE_VALUES = 10_000
MAX_PRECISION = 4096

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_REQUEST = 2
EXIT_SIZE_LIMIT = 3
EXIT_NO_CONVERGENCE = 4


class SizeLimitError(Exception):
    pass


class BadRequestError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    """Accept 'n' or 'lo:hi' (inclusive)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return v, v
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer or lo:hi range, got {text!r}")


def _parse_rat_arg(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}")


def _expand(rng: tuple[int, int], what: str, lo_limit: int | None = None) -> list[int]:
    lo, hi = rng
    if lo > hi:
        raise SizeLimitError(f"empty {what} range {lo}:{hi}")
    if max(abs(lo), abs(hi)) > MAX_INDEX:
        raise SizeLimitError(f"{what} range {lo}:{hi} exceeds the limit of {MAX_INDEX}")
    if lo_limit is not None and lo < lo_limit:
        raise BadRequestError(f"{what} must be >= {lo_limit}")
    return list(range(lo, hi + 1))


def _check_table_values(count: int) -> None:
    if count > MAX_TABLE_VALUES:
        raise SizeLimitError(
            f"table of {count} output values exceeds the limit of {MAX_TABLE_VALUES}"
        )


def _default_precision() -> int:
    raw = os.environ.get("POLYBERNOULLI_PRECISION")
    if raw is None:
        return 64
    try:
        return int(raw)
    except ValueError:
        raise BadRequestError(f"POLYBERNOULLI_PRECISION must be an integer, got {raw!r}")


def _params_from_args(args) -> Params:
    try:
        return Params(args.alpha, args.beta, getattr(args, "gamma", Fraction(1)))
    except ValueError as exc:
        raise BadRequestError(str(exc))


def _params_dict(params: Params, with_gamma: bool) -> dict:
    out = {"alpha": format_rat(params.alpha), "beta": format_rat(params.beta)}
    if with_gamma:
        out["gamma"] = format_rat(params.gamma)
    return out


# ---------------------------------------------------------------------------
# table

def _table_report(args) -> dict:
    kind = args.kind
    if kind in ("pb-number", "pb-neg"):
        ns = _expand(args.n, "n", 0)
        ks = _expand(args.k, "k", 0 if kind == "pb-neg" else None)
        _check_table_values(len(ns) * len(ks))
        entries = []
        for n in ns:
            for k in ks:
                value = pb_number_neg_closed(n, k) if kind == "pb-neg" else pb_number(n, k)
                entries.append({"n": n, "k": k, "value": format_rat(value)})
        classical = Params(Fraction(1), Fraction(0))
        return {"kind": kind, "params": _params_dict(classical, False), "entries": entries}
    if kind in ("gpb-poly", "gpb-c-poly"):
        params = _params_from_args(args)
        ns = _expand(args.n, "n", 0)
        ks = _expand(args.k, "k")
        _check_table_values(sum(n + 1 for n in ns) * len(ks))
        entries = []
        for n in ns:
            for k in ks:
                if kind == "gpb-poly":
                    poly = gpb_explicit(n, k, params).poly
                else:
                    poly = gpb_explicit_c(n, k, params).poly
                entries.append(
                    {"n": n, "k": k, "coeffs": [format_rat(c) for c in poly.coeffs]}
                )
        return {
            "kind": kind,
            "params": _params_dict(params, kind == "gpb-c-poly"),
            "entries": entries,
        }
    if kind == "sym-poly":
        params = _params_from_args(args)
        ns = _expand(args.n, "n", 0)
        ms = _expand(args.m, "m", 0)
        _check_table_values(sum(n + 1 for n in ns) * sum(m + 1 for m in ms))
        entries = []
        for n in ns:
            for m in ms:
                poly = sym_closed(n, m, params)
                terms = [[i, j, format_rat(c)] for i, j, c in poly.sorted_terms()]
                entries.append({"n": n, "m": m, "terms": terms})
        return {"kind": kind, "params": _params_dict(params, False), "entries": entries}
    raise BadRequestError(f"kind {kind!r} is not a table kind")


def _table_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    kind = report["kind"]
    if kind in ("pb-number", "pb-neg"):
        writer.writerow(["n", "k", "value"])
        for e in report["entries"]:
            writer.writerow([e["n"], e["k"], e["value"]])
    elif kind in ("gpb-poly", "gpb-c-poly"):
        writer.writerow(["n", "k", "coeffs"])
        for e in report["entries"]:
            writer.writerow([e["n"], e["k"], ";".join(e["coeffs"])])
    else:
        writer.writerow(["n", "m", "terms"])
        for e in report["entries"]:
            cell = ";".join(f"{i}:{j}:{c}" for i, j, c in e["terms"])
            writer.writerow([e["n"], e["m"], cell])
    return buf.getvalue()


def cmd_table(args) -> tuple[int, str]:
    report = _table_report(args)
    if args.format == "csv":
        return EXIT_OK, _table_csv(report)
    return EXIT_OK, json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# eval

def _eval_poly_report(args) -> dict:
    params = _params_from_args(args)
    kind = args.kind
    if abs(args.k) > MAX_INDEX or args.n > MAX_INDEX or args.m > MAX_INDEX:
        raise SizeLimitError(f"indices exceed the limit of {MAX_INDEX}")
    if args.n < 0 or (kind == "sym-poly" and args.m < 0):
        raise BadRequestError("n and m must be >= 0")
    base = {"kind": kind, "n": args.n, "x": format_rat(args.x)}
    if kind == "gpb-poly":
        value = gpb_explicit(args.n, args.k, params).poly(args.x)
        base["k"] = args.k
        base["params"] = _params_dict(params, False)
    elif kind == "gpb-c-poly":
        value = gpb_explicit_c(args.n, args.k, params).poly(args.x)
        base["k"] = args.k
        base["params"] = _params_dict(params, True)
    else:
        value = sym_closed(args.n, args.m, params)(args.x, args.y)
        base["m"] = args.m
        base["y"] = format_rat(args.y)
        base["params"] = _params_dict(params, False)
    base.update({"mode": "exact", "value": format_rat(value)})
    return base


def cmd_eval(args) -> tuple[int, str]:
    if args.kind in ("gpb-poly", "gpb-c-poly", "sym-poly"):
        report = _eval_poly_report(args)
        if args.format == "text":
            return EXIT_OK, f"value={report['value']} (exact)\n"
        return EXIT_OK, json.dumps(report, indent=2) + "\n"
    params = _params_from_args(args)
    if abs(args.k) > MAX_INDEX:
        raise SizeLimitError(f"|k| exceeds the limit of {MAX_INDEX}")
    precision = args.precision if args.precision is not None else _default_precision()
    if not 1 <= precision <= MAX_PRECISION:
        raise SizeLimitError(f"precision must be within 1..{MAX_PRECISION} bits")
    s = args.s
    base = {
        "kind": "zeta",
        "k": args.k,
        "s": format_rat(s),
        "x": format_rat(args.x),
        "params": _params_dict(params, False),
    }
    if s <= 0 and s.denominator == 1:
        n = -int(s)
        if n > MAX_INDEX:
            raise SizeLimitError(f"|s| exceeds the limit of {MAX_INDEX} in exact mode")
        value = xi_exact_neg(args.k, n, params, args.x)
        base.update({"mode": "exact", "value": format_rat(value)})
    else:
        try:
            query = ZetaQuery(
                k=args.k,
                s=s,
                x=args.x,
                params=params,
                precision=precision,
                max_terms=args.max_terms,
            )
            res = ROUTES[args.route](query)
        except ValueError as exc:
            raise BadRequestError(str(exc))
        digits = max(4, int(precision * 0.30103) + 2)
        with mp.workprec(precision + 16):
            base.update(
                {
                    "mode": "numeric",
                    "route": args.route,
                    "precision": precision,
                    "value": mp.nstr(res.value, digits),
                    "error_bound": mp.nstr(res.error, 3),
                    "terms": res.terms,
                }
            )
    if args.format == "text":
        if base["mode"] == "exact":
            return EXIT_OK, f"value={base['value']} (exact)\n"
        line = (
            f"value={base['value']} p={base['precision']} "
            f"err<={base['error_bound']} terms={base['terms']} route={base['route']}\n"
        )
        return EXIT_OK, line
    return EXIT_OK, json.dumps(base, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> tuple[int, str]:
    names = args.suite if args.suite else None
    try:
        t0 = time.perf_counter()
        report = verify_mod.run_suites(names, args.seed)
        elapsed = time.perf_counter() - t0
    except KeyError as exc:
        raise BadRequestError(str(exc.args[0]))
    code = EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED
    if args.format == "json":
        return code, json.dumps(report, indent=2) + "\n"
    lines = []
    for suite in report["suites"]:
        status = "ok" if suite["failed"] == 0 else "FAILED"
        lines.append(
            f"suite {suite['suite']}: {suite['passed']} passed, "
            f"{suite['failed']} failed [{status}]"
        )
        for case in suite["cases"]:
            if not case["ok"]:
                lines.append(f"  case: {case['case']}")
                lines.append(f"    lhs: {case['lhs']}")
                lines.append(f"    rhs: {case['rhs']}")
    overall = "all checks passed" if report["ok"] else "FAILURES detected"
    lines.append(f"{overall} (seed {report['seed']})")
    print(f"verify wall time: {elapsed:.3f}s", file=sys.stderr)
    return code, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybernoulli",
        description="Poly-Bernoulli numbers, polynomials, and their zeta function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="tabulate a family over index ranges")
    table.add_argument(
        "--kind",
        required=True,
        choices=["pb-number", "pb-neg", "gpb-poly", "gpb-c-poly", "sym-poly"],
    )
    table.add_argument("--n", type=_parse_range, required=True, metavar="LO:HI")
    table.add_argument(
        "--k",
        type=_parse_range,
        default=(0, 0),
        metavar="LO:HI",
        help="index range; write --k=-2:4 when the low end is negative",
    )
    table.add_argument("--m", type=_parse_range, default=(0, 0), metavar="LO:HI")
    table.add_argument("--alpha", type=_parse_rat_arg, default=Fraction(1))
    table.add_argument("--beta", type=_parse_rat_arg, default=Fraction(0))
    table.add_argument("--gamma", type=_parse_rat_arg, default=Fraction(1))
    table.add_argument("--format", choices=["json", "csv"], default="json")
    table.add_argument("--out", default=None, metavar="FILE")
    table.set_defaults(func=cmd_table)

    ev = sub.add_parser("eval", help="evaluate one polynomial or zeta value")
    ev.add_argument(
        "--kind", required=True, choices=["gpb-poly", "gpb-c-poly", "sym-poly", "zeta"]
    )
    ev.add_argument("--n", type=int, default=0)
    ev.add_argument("--k", type=int, default=0)
    ev.add_argument("--m", type=int, default=0)
    ev.add_argument("--s", type=_parse_rat_arg, default=Fraction(1), help="zeta argument")
    ev.add_argument("--x", type=_parse_rat_arg, required=True)
    ev.add_argument("--y", type=_parse_rat_arg, default=Fraction(0))
    ev.add_argument("--alpha", type=_parse_rat_arg, default=Fraction(1))
    ev.add_argument("--beta", type=_parse_rat_arg, default=Fraction(0))
    ev.add_argument("--gamma", type=_parse_rat_arg, default=Fraction(1))
    ev.add_argument("--precision", type=int, default=None, metavar="BITS")
    ev.add_argument("--max-terms", type=int, default=4096)
    ev.add_argument("--route", choices=list(ROUTES), default=next(iter(ROUTES)))
    ev.add_argument("--format", choices=["json", "text"], default="json")
    ev.add_argument("--out", default=None, metavar="FILE")
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run self-verification suites")
    ver.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help="suite name (repeatable); default runs all: " + ", ".join(verify_mod.SUITES),
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--format", choices=["json", "human"], default="human")
    ver.add_argument("--out", default=None, metavar="FILE")
    ver.set_defaults(func=cmd_verify)
    return parser


def _run(argv) -> tuple[int, str | None, str | None]:
    """Returns (exit code, stdout text, output file path)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else EXIT_BAD_REQUEST), None, None
    try:
        code, text = args.func(args)
        return code, text, args.out
    except BadRequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_REQUEST, None, None
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT, None, None
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, None, None
    except ToleranceError as exc:
        print(f"error: {exc} (estimate {exc.estimate})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, None, None


def render_to_string(argv) -> str:
    """Run a command and return its stdout text; raises on nonzero exit."""
    code, text, _out = _run(argv)
    if text is None or code not in (EXIT_OK, EXIT_VERIFY_FAILED):
        raise RuntimeError(f"command failed with exit code {code}: {argv}")
    return text


def main(argv=None) -> int:
    code, text, out_path = _run(argv)
    if text is not None:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
