"""Regenerate zeta_refs.json, the stored references for the `zeta` workload.

    python3 perfbench/make_zeta_refs.py

Every numeric request gets its value at two precisions, 64 and 128 bits above
the request's own, computed by oracle.xi_numeric (mpmath only, no package
code).  The two must agree to 2^-(precision+32) relative before the file is
written; the benchmark compares outputs with the sharper one.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from mpmath import mp

import oracle
from workloads import ZETA

OUT = Path(__file__).resolve().parent / "zeta_refs.json"


def main() -> int:
    refs = {}
    for req in ZETA:
        o = req.options()
        p = int(o["precision"])
        args = (int(o["k"]), Fraction(o["s"]), Fraction(o["x"]), Fraction(o["alpha"]), Fraction(o["beta"]))
        t0 = time.perf_counter()
        low = oracle.xi_numeric(*args, p + 64)
        high = oracle.xi_numeric(*args, p + 128)
        with mp.workprec(p + 160):
            gap = abs(high - low)
            if gap > abs(high) * mp.ldexp(1, -(p + 32)):
                print(f"references disagree by {mp.nstr(gap, 5)}: {req.line}", file=sys.stderr)
                return 1
            digits = int((p + 128) * 0.30103) + 2
            refs[req.line] = {
                "precisions": [p + 64, p + 128],
                "value": mp.nstr(high, digits, strip_zeros=False),
                "gap": mp.nstr(gap, 5),
            }
        print(f"{time.perf_counter() - t0:7.1f}s gap={mp.nstr(gap, 3)}  {req.line}", file=sys.stderr)
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
