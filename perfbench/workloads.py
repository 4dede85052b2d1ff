"""The three fixed request lists.

Each request is the argument list of one `polybernoulli` CLI invocation.  The
lists never change with the run's seed or its length: request cost depends
strongly on the arguments (`verify --seed 10` takes ten times as long as
`verify --seed 5`), so a sampled list would measure the draw, not the code.
The seed only permutes the order in which a round serves the list; every
request starts from a freshly imported, cache-cold CLI, so the order does not
change the work.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

import checks

SMALL = "--alpha 1/2 --beta 1/3"
LARGE = "--alpha 1000000/7 --beta 1/999999"

# The one request expected to fail its output check, and only as a value
# outside its error_bound.  polylog_on_kernel (src/polybernoulli/zeta.py)
# ends its expansion around z = 1 once |mu^j/j!| < eps, ignoring the growth
# of zeta(k-j); at 256 bits the printed value is 9.4e-76 away from the mpmath
# reference while the reported error_bound is 3.0e-89.
POLYLOG_TRUNCATION = checks.OUTSIDE_ERROR_BOUND


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    known_fault: str | None = None  # the one kind of checks.Problem excused

    @property
    def line(self) -> str:
        return shlex.join(self.argv)

    def options(self) -> dict[str, str]:
        """{flag: value} for the `--flag value` and `--flag=value` pairs."""
        opts: dict[str, str] = {}
        args = iter(self.argv[1:])
        for arg in args:
            flag, eq, value = arg.partition("=")
            opts[flag[2:]] = value if eq else next(args)
        return opts


def _req(line: str, known_fault: str | None = None) -> Request:
    return Request(tuple(shlex.split(line)), known_fault)


TABLES = [
    _req("table --kind pb-neg --n 0:64 --k 0:64"),
    _req("table --kind pb-number --n 0:16 --k=-4:4"),
    _req(f"eval --kind gpb-poly --n 64 --k 3 {SMALL} --x 1/2"),
    _req(f"eval --kind gpb-poly --n 40 --k=-40 {LARGE} --x 5"),
    _req(f"eval --kind gpb-poly --n 24 --k 5 {LARGE} --x 3"),
    _req(f"table --kind gpb-poly --n 0:12 --k=-4:4 {SMALL} --format csv"),
    _req(f"eval --kind gpb-c-poly --n 24 --k=-7 {LARGE} --gamma 2/3 --x 1/3"),
    _req(f"table --kind gpb-c-poly --n 0:8 --k=-3:3 {SMALL} --gamma 2/3"),
    _req(f"table --kind sym-poly --n 0:6 --m 0:6 {SMALL}"),
    _req(f"table --kind sym-poly --n 0:3 --m 0:3 {LARGE}"),
    _req(f"eval --kind sym-poly --n 12 --m 10 {LARGE} --x 1/2 --y=-1/3"),
    _req(f"eval --kind zeta --k 2 --s=-64 --x 1/2 {SMALL}"),
    _req(f"eval --kind zeta --k=-3 --s=-20 --x 7 {LARGE}"),
    _req(f"eval --kind zeta --k 64 --s=-64 --x 1/2 {LARGE}"),
]

_Z30 = "--k 2 --s 3/2 --x 30 --alpha 1 --beta 1/2"

ZETA = [
    _req(f"eval --kind zeta {_Z30} --precision 64 --route series"),
    _req(f"eval --kind zeta {_Z30} --precision 128 --route series"),
    _req("eval --kind zeta --k 2 --s 3/2 --x 60 --alpha 1 --beta 1/2 --precision 192 --route series"),
    _req("eval --kind zeta --k 1 --s 5/2 --x 120 --alpha 1/3 --beta 2/3 --precision 256 --route series"),
    _req("eval --kind zeta --k 3 --s 1/2 --x 45 --alpha 1/4 --beta 3/4 --precision 64 --route series"),
    _req("eval --kind zeta --k 2 --s 2 --x 200 --alpha 1 --beta 1/3 --precision 256 --route series"),
    _req("eval --kind zeta --k 1 --s 1/2 --x 40 --alpha 1 --beta 1 --precision 64 --route reduced"),
    _req("eval --kind zeta --k 3 --s 2 --x 50 --alpha 1/2 --beta 1/4 --precision 128 --route reduced"),
    _req("eval --kind zeta --k 2 --s 5/2 --x 90 --alpha 1/2 --beta 1/2 --precision 192 --route reduced"),
    _req("eval --kind zeta --k 2 --s 7/2 --x 100 --alpha 1 --beta 1/2 --precision 256 --route reduced"),
    _req(f"eval --kind zeta {_Z30} --precision 64 --route quadrature"),
    _req("eval --kind zeta --k 3 --s 1/2 --x 40 --alpha 1/2 --beta 1/2 --precision 128 --route quadrature"),
    _req("eval --kind zeta --k 1 --s 3 --x 2 --alpha 1/2 --beta 1/2 --precision 192 --route quadrature"),
    _req(f"eval --kind zeta {_Z30} --precision 256 --route quadrature", POLYLOG_TRUNCATION),
    _req("eval --kind zeta --k 3 --s 5/2 --x 1/10 --alpha 1 --beta 1/2 --precision 64 --route quadrature"),
]

VERIFY_SEEDS = range(6)
VERIFY = [_req(f"verify --seed {seed} --format json") for seed in VERIFY_SEEDS]

WORKLOADS = {"tables": TABLES, "zeta": ZETA, "verify": VERIFY}
