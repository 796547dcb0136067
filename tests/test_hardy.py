"""Hardy projections, the time-profile transform, and the quadrature oracle."""

import numpy as np
import pytest

from timearrow import (
    Space,
    TimeProfile,
    guard_band_leakage,
    hardy_embed,
    hardy_part,
    hardy_project,
    hardy_project_oracle,
    inner,
    make_grid,
    make_state,
    norm,
    rational_hardy,
    smooth_oracle_state,
    to_time,
)
from oracles import from_time


def _rand_full(grid, rng):
    n = grid.dim(Space.FULL_LINE)
    return make_state(grid, Space.FULL_LINE, rng.normal(size=n) + 1j * rng.normal(size=n))


class TestTransform:
    def test_round_trip(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        assert norm(from_time(to_time(f)) - f) <= 1e-12 * norm(f)

    def test_parseval(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        assert to_time(f).norm() == pytest.approx(norm(f), rel=1e-12)

    def test_profile_length_validated(self, small_grid):
        with pytest.raises(ValueError):
            TimeProfile(small_grid, np.zeros(3))

    def test_simple_pole_gives_exponential_profile(self, big_grid):
        # 1/(sigma + i) transforms to a one-sided exponential; the stored
        # samples carry the sqrt(2 pi) of the unitary normalization.
        f = rational_hardy(big_grid, [(-1j, 1)])
        tau = big_grid.tau()
        target = np.sqrt(2 * np.pi) * np.where(
            tau >= 0, -1j * np.exp(-np.where(tau >= 0, tau, 0.0)), 0.0
        )
        p = to_time(f).samples
        mismatch = np.linalg.norm(p - target) / np.linalg.norm(target)
        assert mismatch <= 0.05
        assert mismatch == pytest.approx(0.023063, abs=3e-4)


class TestProjections:
    def test_idempotent_hermitian_complementary(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        g = _rand_full(small_grid, rng)
        pf = hardy_project(f, "plus")
        mf = hardy_project(f, "minus")
        assert norm(hardy_project(pf, "plus") - pf) <= 1e-12 * norm(f)
        assert norm(pf + mf - f) <= 1e-12 * norm(f)
        assert inner(g, pf) == pytest.approx(inner(hardy_project(g, "plus"), f),
                                             abs=1e-12)
        assert inner(pf, mf) == pytest.approx(0.0, abs=1e-12)

    def test_half_argument_validated(self, small_grid, rng):
        with pytest.raises(ValueError):
            hardy_project(_rand_full(small_grid, rng), "both")

    def test_negative_support_annihilated(self, small_grid, rng):
        # profile living entirely at tau < 0 is exactly in the minus half
        n = small_grid.n_sigma
        samples = np.zeros(n, dtype=np.complex128)
        samples[: n // 2] = rng.normal(size=n // 2)
        f = from_time(TimeProfile(small_grid, samples))
        assert norm(hardy_project(f, "plus")) <= 1e-14 * norm(f)

    def test_plus_projection_support(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        p = to_time(hardy_project(f, "plus")).samples
        assert np.all(np.abs(p[: small_grid.n_sigma // 2]) <= 1e-13 * np.abs(p).max())

    def test_part_embed_round_trip(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        h = hardy_part(f)
        assert h.space is Space.HARDY_PLUS
        back = hardy_embed(h)
        assert norm(back - hardy_project(f, "plus")) <= 1e-12 * norm(f)
        assert norm(hardy_part(back) - h) <= 1e-13 * norm(f)
        assert norm(back) == pytest.approx(h.norm(), rel=1e-13)


class TestRationalFamilies:
    def test_simple_pole_norm(self, big_grid):
        # residue calculus: |1/(sigma+i)|^2 integrates to pi
        n2 = norm(rational_hardy(big_grid, [(-1j, 1)])) ** 2
        assert n2 == pytest.approx(np.pi, rel=0.01)
        assert n2 == pytest.approx(3.121593, abs=1e-4)

    def test_double_pole_norm(self, big_grid):
        # integral of dsigma / (sigma^2 + 4)^2 = pi / (2 * 2^3)
        n2 = norm(rational_hardy(big_grid, [(-2j, 2)])) ** 2
        assert n2 == pytest.approx(np.pi / 16, rel=0.01)

    def test_membership_residuals(self, big_grid):
        f1 = rational_hardy(big_grid, [(-1j, 1)])
        r1 = norm(hardy_project(f1, "plus") - f1) / norm(f1)
        assert r1 <= 0.05
        assert r1 == pytest.approx(0.016642, abs=2e-4)
        f2 = rational_hardy(big_grid, [(-1j, 2)])
        r2 = norm(hardy_project(f2, "plus") - f2) / norm(f2)
        assert r2 <= 0.012
        assert r2 == pytest.approx(4.679e-4, abs=2e-5)

    def test_samples_never_vanish(self, small_grid):
        # boundary values of Hardy functions have no zero set of positive
        # measure; on the lattice no bin may fall below 1e-14 of the peak
        f = rational_hardy(small_grid, [(-1j, 1), (-0.5 - 2j, 2)])
        a = np.abs(f.amplitudes)
        assert np.count_nonzero(a < 1e-14 * a.max()) == 0

    def test_fiber_vector(self):
        g = make_grid(32, 10.0, 2)
        f = rational_hardy(g, [(-1j, 1)], v=np.array([0.0, 1.0]))
        fib = f.fibered()
        assert np.all(fib[:, 0] == 0)
        assert np.any(fib[:, 1] != 0)

    def test_preconditions(self, small_grid):
        with pytest.raises(ValueError):
            rational_hardy(small_grid, [(+1j, 1)])
        with pytest.raises(ValueError):
            rational_hardy(small_grid, [(1.0, 1)])  # pole on the real axis
        with pytest.raises(ValueError):
            rational_hardy(small_grid, [(-1j, 3)])
        with pytest.raises(ValueError):
            rational_hardy(small_grid, [])


class TestQuadratureOracle:
    def test_agrees_with_fft_route_on_smooth_states(self, oracle_grid):
        rng = np.random.default_rng(202)
        for _ in range(3):
            f = smooth_oracle_state(oracle_grid, rng)
            gap = norm(hardy_project_oracle(f) - hardy_project(f, "plus"))
            assert gap <= 1e-3 * norm(f)

    def test_near_identity_on_rational(self, oracle_grid):
        f = rational_hardy(oracle_grid, [(-1j, 1)])
        r_oracle = norm(hardy_project_oracle(f) - f) / norm(f)
        r_fft = norm(hardy_project(f, "plus") - f) / norm(f)
        assert r_oracle <= 0.08
        assert r_oracle == pytest.approx(0.046297, abs=5e-4)
        assert r_fft == pytest.approx(0.024011, abs=5e-4)

    def test_linearity(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        g = _rand_full(small_grid, rng)
        lhs = hardy_project_oracle(f * 2.0 + g * (0.5j))
        rhs = hardy_project_oracle(f) * 2.0 + hardy_project_oracle(g) * (0.5j)
        assert norm(lhs - rhs) <= 1e-12 * (norm(f) + norm(g))


class TestGuardBand:
    def test_zero_for_window_interior(self, small_grid, rng):
        n = small_grid.n_sigma
        samples = np.zeros(n, dtype=np.complex128)
        # content confined to the middle half of the window
        samples[n // 4 : 3 * n // 4] = rng.normal(size=n // 2)
        f = from_time(TimeProfile(small_grid, samples))
        # exact zero up to FFT round-off dust (amplitudes ~1e-16, squared)
        assert guard_band_leakage(f) <= 1e-25

    def test_detects_edge_content(self, small_grid):
        n = small_grid.n_sigma
        samples = np.zeros(n, dtype=np.complex128)
        samples[-1] = 1.0  # rightmost tau bin, deep in the guard band
        assert guard_band_leakage(TimeProfile(small_grid, samples)) == pytest.approx(1.0)

    def test_accepts_all_tags(self, small_grid, rng):
        f = _rand_full(small_grid, rng)
        leak = guard_band_leakage(f)
        assert 0.0 <= leak <= 1.0
        assert guard_band_leakage(hardy_part(f)) <= 1.0
        assert guard_band_leakage(f * 0.0) == 0.0
