"""Package-wide cache policy: every functools cache and core's number rows
have a finite bound, so a long-running process cannot grow one without
limit."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import polybernoulli
from polybernoulli import Params, core, gpb_number

from conftest import literal_double_sum


def test_every_functools_cache_is_bounded():
    seen = []
    for info in pkgutil.iter_modules(polybernoulli.__path__):
        module = importlib.import_module(f"polybernoulli.{info.name}")
        classes = [c for c in vars(module).values() if inspect.isclass(c)]
        for scope in [module] + [c for c in classes if c.__module__ == module.__name__]:
            for name, obj in vars(scope).items():
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if hasattr(obj, "cache_parameters"):
                    seen.append(f"{info.name}.{name}")
                    assert obj.cache_parameters()["maxsize"] is not None, seen[-1]
    assert {"zeta._kernel_coefficients", "zeta._gf_coefficients"} <= set(seen)


def test_generalized_number_rows_are_bounded(monkeypatch):
    # Three times the bound in distinct (k, beta, alpha + beta): core keeps the
    # newest rows, and every value, whether its row was evicted or kept, still
    # equals the literal double sum.
    monkeypatch.setattr(core, "_PB_ROWS", {})
    bound = core._PB_ROWS_MAX
    cases = [(i % 5 - 2, Params(Fraction(i + 1, 3), Fraction(1, 2))) for i in range(3 * bound)]
    for k, params in cases:
        gpb_number(3, k, params)
    assert list(core._PB_ROWS) == [(k, p.beta, p.log_sum) for k, p in cases[-bound:]]
    for k, params in cases:
        assert gpb_number(3, k, params) == literal_double_sum(3, k, params)(0), (k, params)
    assert len(core._PB_ROWS) == bound
