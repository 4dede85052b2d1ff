"""Package-wide cache policy: every functools cache has a finite bound, so a
long-running process cannot grow one without limit."""

import importlib
import inspect
import pkgutil

import polybernoulli


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
