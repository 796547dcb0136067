"""Discrete model of dynamically emergent time ordering.

Unitary evolution on an energy half-line, its forward quasi-affine map into
the positive Hardy subspace, the Lyapunov operator with monotonically
decaying expectation curves, the square-root transform to an irreversible
contraction-semigroup picture, and the past/future projection family with
its temporal-ordering operator — all on one FFT-backed finite grid with
exact lattice-time shift algebra.

The public names are those of the modules' ``__all__``; the command line,
``timearrow.cli``, is not imported here.  The acceptance battery,
``timearrow.selftest``, loads on first use: of ``selftest``, of one of its
names or of ``__all__``.
"""

import importlib

from . import _config, evolution, hardy, lambda_transform, lyapunov, ordering
from . import spaces, states
from ._config import *
from .spaces import *
from .hardy import *
from .evolution import *
from .lyapunov import *
from .lambda_transform import *
from .ordering import *
from .states import *

__version__ = "0.1.0"


def __getattr__(name):
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    selftest = importlib.import_module(".selftest", __name__)
    globals().update({n: getattr(selftest, n) for n in selftest.__all__}, __all__=[
        "__version__", *_config.__all__, *spaces.__all__, *hardy.__all__,
        *evolution.__all__, *lyapunov.__all__, *lambda_transform.__all__,
        *ordering.__all__, *states.__all__, *selftest.__all__])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
