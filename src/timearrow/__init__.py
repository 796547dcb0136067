"""Discrete model of dynamically emergent time ordering.

Unitary evolution on an energy half-line, its forward quasi-affine map into
the positive Hardy subspace, the Lyapunov operator with monotonically
decaying expectation curves, the square-root transform to an irreversible
contraction-semigroup picture, and the past/future projection family with
its temporal-ordering operator — all on one FFT-backed finite grid with
exact lattice-time shift algebra.

The public names are those of the modules' ``__all__``; the command line,
``timearrow.cli``, is not imported here.  The eight layer modules are in
``sys.modules`` from the start but each runs on first access to one of its
attributes (``importlib.util.LazyLoader``), and a public name resolves on
first access through the module ``__getattr__``.  The acceptance battery,
``timearrow.selftest``, loads on first use: of ``selftest``, of one of its
names or of ``__all__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("_config", "spaces", "hardy", "evolution", "lyapunov", "lambda_transform",
           "ordering", "states")

for _name in _LAYERS:  # the lazy-import recipe of the importlib docs
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [globals()[layer] for layer in _LAYERS]
    if not any(name in module.__all__ for module in modules):  # selftest's, or __all__
        modules.append(importlib.import_module(".selftest", __name__))
        globals()["__all__"] = ["__version__", *(n for m in modules for n in m.__all__)]
    globals().update({n: getattr(m, n) for m in modules for n in m.__all__})
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
