"""Shared fixtures.

The dense model factorization (two half-size eigenproblems of the commuting
tridiagonal, then N x N products) is shared: one instance is built per
session for every test module that needs matrices, and tests that run a
dense SVD as an oracle reuse it too.
"""

import numpy as np
import pytest

from timearrow import build_model, make_grid


@pytest.fixture(scope="session")
def dense_grid():
    # working dense tier: 512 half-line bins, energy window [-100, 100]
    return make_grid(1024, 100.0, 1)


@pytest.fixture(scope="session")
def model(dense_grid):
    return build_model(dense_grid)


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
