"""Shared fixtures.

The model factorization (one half-size eigenproblem of the commuting
tridiagonal) is shared: one instance is built per session for every test
module that needs matrices, and tests that run a dense SVD as an oracle
reuse it too.  So is one run of the acceptance
battery, read by the per-criterion tests and by the ``selftest`` command's
report-stability test.

Every run of the command line, in process or as a subprocess, keeps its
model cache in one directory of the session: ``XDG_CACHE_HOME`` points there
before any test runs, so the suite never reads or writes the user's cache.
"""

import numpy as np
import pytest

from timearrow import DEFAULT_CONFIG, build_model, make_grid
from timearrow.selftest import run_all


@pytest.fixture(scope="session", autouse=True)
def _session_model_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def dense_grid():
    # working dense tier: 512 half-line bins, energy window [-100, 100]
    return make_grid(1024, 100.0, 1)


@pytest.fixture(scope="session")
def model(dense_grid):
    return build_model(dense_grid)


@pytest.fixture(scope="session")
def battery(pytestconfig):
    """The acceptance battery at the default ``n_dense``, run once per session.

    One summary line per criterion is printed as it completes, past output
    capture.
    """
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        print()
        return run_all(DEFAULT_CONFIG["dense"]["n_dense"],
                       progress=lambda r: print(r.summary()))


@pytest.fixture(scope="session")
def small_grid():
    # cheap grid for exact-algebra and property tests
    return make_grid(64, 20.0, 1)


@pytest.fixture(scope="session")
def oracle_grid():
    # grid used for the quadrature cross-check (O(N^2) oracle stays cheap)
    return make_grid(1024, 50.0, 1)


@pytest.fixture(scope="session")
def big_grid():
    # FFT-tier grid for truncation-sensitive continuum numbers
    return make_grid(4096, 100.0, 1)


@pytest.fixture()
def rng():
    return np.random.default_rng(1905)
