"""Evolution group, Toeplitz semigroup, and the kernel witness family."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from timearrow import (
    OffLatticeTimeError,
    OffLatticeWarning,
    Space,
    hardy_embed,
    hardy_part,
    inner,
    kernel_witness,
    lattice_index,
    make_grid,
    make_state,
    norm,
    toeplitz_step,
    unitary_evolve,
)
from timearrow.evolution import _semigroup_index, _toeplitz_block, _unitary_block
from oracles import toeplitz_adjoint


def _spectral_step(f, t):
    # spectral route of the compressed semigroup: embed, evolve, project back
    return hardy_part(unitary_evolve(f, t))


def _spectral_adjoint(f, t):
    return hardy_part(unitary_evolve(f, -t))


def _scalar_lattice_index(grid, t, snap):
    # the one-time-at-a-time rounding rule, kept as the oracle of the array one
    ratio = t / grid.delta_tau
    if not math.isfinite(ratio):
        raise OffLatticeTimeError("no dual-lattice index")
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)) and not snap:
        raise OffLatticeTimeError("not on the dual lattice")
    return k


def _rounded(grid, t):
    # the one rounding route: lattice_index, then back to a lattice time
    return lattice_index(grid, t, snap=True) * grid.delta_tau


def _slice_loop_block(h, ks):
    # one slice copy per column, kept as the oracle of the windowed gather
    a, n = h.amplitudes, h.amplitudes.size
    out = np.zeros((len(ks), n), dtype=a.dtype)
    for row, e in zip(out, np.asarray(ks) * h.grid.k_dim):
        row[max(-e, 0) : max(n - e, 0)] = a[max(e, 0) : max(n + e, 0)]
    return out.T


def _rand_state(grid, space, rng):
    n = grid.dim(space)
    return make_state(grid, space, rng.normal(size=n) + 1j * rng.normal(size=n))


class TestUnitaryGroup:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
    def test_group_law_and_isometry(self, t, s):
        g = make_grid(16, 5.0)
        r = np.random.default_rng(99)
        f = _rand_state(g, Space.FULL_LINE, r)
        once = unitary_evolve(unitary_evolve(f, t), s)
        both = unitary_evolve(f, t + s)
        assert norm(once - both) <= 1e-10 * norm(f)
        assert norm(once) == pytest.approx(norm(f), rel=1e-12)

    def test_identity_at_zero(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        assert norm(unitary_evolve(f, 0.0) - f) == 0.0
        p = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        assert norm(unitary_evolve(p, 0.0) - p) == 0.0

    def test_inverse(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        assert norm(unitary_evolve(unitary_evolve(f, 3.7), -3.7) - f) <= 1e-12 * norm(f)

    def test_hardy_input_is_embedded(self, small_grid, rng):
        h = hardy_part(_rand_state(small_grid, Space.FULL_LINE, rng))
        out = unitary_evolve(h, 0.0)
        assert out.space is Space.FULL_LINE
        assert norm(out - hardy_embed(h)) == 0.0


class TestLatticeIndex:
    def test_exact_multiples(self, small_grid):
        for k in (0, 1, 5, 31):
            assert lattice_index(small_grid, k * small_grid.delta_tau) == k

    def test_off_lattice_rejected(self, small_grid):
        with pytest.raises(OffLatticeTimeError):
            lattice_index(small_grid, 0.5 * small_grid.delta_tau)

    def test_snapping_warns(self, small_grid):
        with pytest.warns(OffLatticeWarning):
            k = lattice_index(small_grid, 3.49 * small_grid.delta_tau, snap=True)
        assert k == 3

    def test_warning_names_the_caller(self, small_grid):
        # a direct call and kernel_witness's own rounding both warn at the
        # line of this file that called them
        with pytest.warns(OffLatticeWarning) as direct:
            lattice_index(small_grid, 3.49 * small_grid.delta_tau, snap=True)
        with pytest.warns(OffLatticeWarning) as witness:
            kernel_witness(small_grid, -1j, 8.5 * small_grid.delta_tau)
        for record in (direct, witness):
            assert [w.filename for w in record] == [__file__]

    def test_negative_times_are_lattice_points_too(self, small_grid):
        assert lattice_index(small_grid, -2 * small_grid.delta_tau) == -2

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), 1e308])
    @pytest.mark.parametrize("snap", [False, True])
    def test_non_finite_index_rejected(self, small_grid, t, snap):
        with pytest.raises(OffLatticeTimeError, match="no dual-lattice index"):
            lattice_index(small_grid, t, snap=snap)

    @staticmethod
    def _mixed_times(grid):
        # on-lattice, off-lattice, negative and exact half-step ratios
        dt = grid.delta_tau
        ratios = [0, 1, 31, -2, 3.49, 3.51, -7.2, 0.5, 1.5, 2.5, -0.5, -1.5,
                  -2.5, 1e6 + 0.5, 4.0 + 1e-12]
        t = np.array(ratios) * dt
        halves = [r for r in ratios if r % 1 == 0.5]
        assert all(((r * dt) / dt) == r for r in halves)  # ties really are ties
        return t

    def test_array_matches_scalar_oracle(self, small_grid):
        t = self._mixed_times(small_grid)
        expected = [_scalar_lattice_index(small_grid, ti, True) for ti in t]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OffLatticeWarning)
            ks = lattice_index(small_grid, t, snap=True)
            scalars = [lattice_index(small_grid, ti, snap=True) for ti in t]
        assert ks.dtype == np.int64 and ks.shape == t.shape
        assert ks.tolist() == expected
        assert all(type(k) is int for k in scalars) and scalars == expected
        # ties round to even, as Python's round
        assert ks[7:13].tolist() == [0, 2, 2, 0, -2, -2]

    def test_one_warning_per_snapping_call(self, small_grid):
        t = self._mixed_times(small_grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lattice_index(small_grid, t, snap=True)
        assert [w.category for w in caught] == [OffLatticeWarning]
        message = str(caught[0].message)
        assert f"t[4] = {t[4]} snapped to lattice point {3 * small_grid.delta_tau}" \
            in message
        assert f"(10 of {t.size} moved)" in message
        on_lattice = np.arange(-3, 40) * small_grid.delta_tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ks = lattice_index(small_grid, on_lattice, snap=True)
        assert ks.tolist() == list(range(-3, 40))

    def test_array_without_snap_names_first_bad_entry(self, small_grid):
        t = self._mixed_times(small_grid)
        with pytest.raises(OffLatticeTimeError, match=r"t\[4\] = .* not on") as err:
            lattice_index(small_grid, t)
        assert err.value.index == 4
        with pytest.raises(OffLatticeTimeError, match=r"^t = .* not on") as err:
            lattice_index(small_grid, t[4])
        assert err.value.index is None

    @pytest.mark.parametrize("snap", [False, True])
    def test_index_past_int64_rejected(self, small_grid, snap):
        # finite time, but no int64 index; the division must not warn either
        big = 1e300 * small_grid.delta_tau
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OffLatticeTimeError, match="no dual-lattice index"):
                lattice_index(small_grid, big, snap=snap)
            t = np.array([0.0, small_grid.delta_tau, big, 1e308])
            with pytest.raises(OffLatticeTimeError,
                               match=r"t\[2\] = .* no dual-lattice index") as err:
                lattice_index(small_grid, t, snap=snap)
        assert err.value.index == 2

    def test_negative_semigroup_time_named(self, small_grid):
        dt = small_grid.delta_tau
        assert _semigroup_index(small_grid, np.array([0.0, dt])).tolist() == [0, 1]
        with pytest.raises(ValueError, match=r"got t\[2\] = -"):
            _semigroup_index(small_grid, np.array([0.0, dt, -dt, -2 * dt]))


class TestToeplitzSemigroup:
    def test_matches_spectral_oracle(self, small_grid, rng):
        # the slices agree with embed -> phase -> project on any state
        h = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        for k in (0, 1, 7, 20, 31):
            t = k * small_grid.delta_tau
            gap = norm(toeplitz_step(h, t) - _spectral_step(h, t))
            assert gap <= 1e-12 * norm(h)
            gap = norm(toeplitz_adjoint(h, t) - _spectral_adjoint(h, t))
            assert gap <= 1e-12 * norm(h)

    def test_fibres_shift_together(self, rng):
        g = make_grid(32, 10.0, 3)
        h = _rand_state(g, Space.HARDY_PLUS, rng)
        for k in (0, 1, 5, 15):
            t = k * g.delta_tau
            assert norm(toeplitz_step(h, t) - _spectral_step(h, t)) <= 1e-12 * norm(h)
            assert norm(toeplitz_adjoint(h, t) - _spectral_adjoint(h, t)) \
                <= 1e-12 * norm(h)

    def test_identity_at_zero(self, small_grid, rng):
        h = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        assert norm(toeplitz_step(h, 0.0) - h) <= 1e-13 * norm(h)
        assert norm(toeplitz_adjoint(h, 0.0) - h) <= 1e-13 * norm(h)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 20), st.integers(0, 20))
    def test_semigroup_law_and_contractivity(self, k1, k2):
        g = make_grid(32, 10.0)
        r = np.random.default_rng(7)
        h = _rand_state(g, Space.HARDY_PLUS, r)
        dt = g.delta_tau
        two = toeplitz_step(toeplitz_step(h, k1 * dt), k2 * dt)
        one = toeplitz_step(h, (k1 + k2) * dt)
        assert norm(two - one) <= 1e-11 * norm(h)
        assert norm(one) <= norm(h) * (1 + 1e-13)
        assert norm(one) <= norm(toeplitz_step(h, k1 * dt)) * (1 + 1e-13)

    def test_annihilates_past_half_window(self, small_grid, rng):
        h = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        dead = toeplitz_step(h, small_grid.t_window / 2)
        assert norm(dead) == 0.0

    def test_adjoint_pairing(self, small_grid, rng):
        f = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        g = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        t = 5 * small_grid.delta_tau
        assert inner(toeplitz_step(f, t), g) == pytest.approx(
            inner(f, toeplitz_adjoint(g, t)), abs=1e-12
        )

    def test_step_after_adjoint_is_identity(self, small_grid, rng):
        # the co-isometry leg: the left shift undoes the zero-padded right
        # shift exactly, as long as the shift never pushes power over the
        # far window edge (guard-banded support)
        nh = small_grid.n_half()
        b = np.zeros(nh, dtype=np.complex128)
        b[: nh // 2] = rng.normal(size=nh // 2) + 1j * rng.normal(size=nh // 2)
        h = make_state(small_grid, Space.HARDY_PLUS, b)
        for k in (1, 6, nh // 2 - 1):
            t = k * small_grid.delta_tau
            back = toeplitz_step(toeplitz_adjoint(h, t), t)
            assert norm(back - h) <= 1e-12 * norm(h)
        # with power at the far edge the identity fails by exactly the mass
        # the right shift pushes over it
        full = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        t = small_grid.delta_tau
        got = toeplitz_step(toeplitz_adjoint(full, t), t)
        lost = full.fibered()[-1]
        assert norm(got - full) == pytest.approx(
            np.sqrt((np.abs(lost) ** 2).sum() * small_grid.delta_sigma),
            rel=1e-9,
        )

    def test_adjoint_isometric_on_guarded_interior(self, small_grid, rng):
        # support well inside the window: the right shift loses nothing
        b = np.zeros(small_grid.n_half(), dtype=np.complex128)
        b[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
        h = make_state(small_grid, Space.HARDY_PLUS, b)
        t = 4 * small_grid.delta_tau
        assert norm(toeplitz_adjoint(h, t)) == pytest.approx(norm(h), rel=1e-12)

    def test_off_lattice_policy(self, small_grid, rng):
        h = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        t_bad = 0.5 * small_grid.delta_tau
        with pytest.raises(OffLatticeTimeError):
            toeplitz_step(h, t_bad)
        with pytest.warns(OffLatticeWarning):
            snapped = toeplitz_step(h, _rounded(small_grid, t_bad))
        assert norm(snapped - h) <= 1e-13 * norm(h)  # rounds down to k = 0

    def test_negative_time_rejected(self, small_grid, rng):
        h = _rand_state(small_grid, Space.HARDY_PLUS, rng)
        with pytest.raises(ValueError):
            toeplitz_step(h, -small_grid.delta_tau)

    def test_space_tag_enforced(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        with pytest.raises(Exception):
            toeplitz_step(f, 0.0)


class TestKernelWitness:
    def test_norm_matches_time_integral(self, big_grid):
        # profile is a unit-modulus exponential on [0, t0): squared norm
        # equals int_0^1 exp(-2 tau) dtau up to truncation
        with pytest.warns(OffLatticeWarning):
            w = kernel_witness(big_grid, -1j, 1.0)
        n2 = norm(w) ** 2
        assert n2 == pytest.approx((1 - np.exp(-2)) / 2, rel=0.02)
        assert n2 == pytest.approx(0.429301, abs=1e-5)

    def test_half_time_ratio(self, big_grid):
        with pytest.warns(OffLatticeWarning):
            w = kernel_witness(big_grid, -1j, 1.0)
        with pytest.warns(OffLatticeWarning):
            r = norm(toeplitz_step(w, _rounded(big_grid, 0.5))) / norm(w)
        expected = np.sqrt((np.exp(-1) - np.exp(-2)) / (1 - np.exp(-2)))
        assert r == pytest.approx(expected, abs=0.01)
        assert r == pytest.approx(0.518820, abs=1e-4)

    def test_dies_at_its_deadline(self, big_grid):
        with pytest.warns(OffLatticeWarning):
            w = kernel_witness(big_grid, -1j, 1.0)
        with pytest.warns(OffLatticeWarning):
            r1 = norm(toeplitz_step(w, _rounded(big_grid, 1.0))) / norm(w)
        with pytest.warns(OffLatticeWarning):
            r2 = norm(toeplitz_step(w, _rounded(big_grid, 2.0))) / norm(w)
        assert r1 <= 5e-2
        assert r1 == pytest.approx(6.327e-3, abs=2e-4)
        assert r2 <= r1  # kernels nest as t grows

    def test_lattice_t0_does_not_warn(self, small_grid):
        t0 = 8 * small_grid.delta_tau
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            kernel_witness(small_grid, -1j, t0)

    def test_preconditions(self, small_grid):
        dt = small_grid.delta_tau
        with pytest.raises(ValueError):
            kernel_witness(small_grid, +1j, 8 * dt)
        with pytest.raises(ValueError):
            kernel_witness(small_grid, 1.0 + 0j, 8 * dt)
        with pytest.raises(ValueError):
            kernel_witness(small_grid, -1j, 0.0)
        with pytest.raises(ValueError):
            kernel_witness(small_grid, -1j, -1.0)
        with pytest.raises(OffLatticeTimeError):
            kernel_witness(small_grid, -1j, 8.5 * dt, snap=False)

    def test_space_and_fiber(self, small_grid):
        w = kernel_witness(small_grid, -1j, 8 * small_grid.delta_tau)
        assert w.space is Space.HARDY_PLUS
        assert norm(w) > 0


class TestBlocks:
    """Blocks along a time grid: column ``i`` is the single-state result at ``t_i``."""

    @pytest.mark.parametrize("k_dim", [1, 2])
    def test_columns_match_single_states(self, rng, k_dim):
        grid = make_grid(64, 20.0, k_dim)
        ks = np.array([0, 1, 5, 31, 32, 40])
        f = _rand_state(grid, Space.HALF_LINE_POS, rng)
        h = _rand_state(grid, Space.HARDY_PLUS, rng)
        evolved = _unitary_block(f, ks * grid.delta_tau)
        forward = _toeplitz_block(grid, h.amplitudes, ks)
        backward = _toeplitz_block(grid, h.amplitudes, -ks)
        for i, k in enumerate(ks):
            t = k * grid.delta_tau
            assert np.array_equal(evolved[:, i], unitary_evolve(f, t).amplitudes)
            assert np.array_equal(forward[:, i], toeplitz_step(h, t).amplitudes)
            assert np.array_equal(backward[:, i], toeplitz_adjoint(h, t).amplitudes)

    @pytest.mark.parametrize("k_dim", [1, 2])
    def test_gather_matches_slice_loop(self, rng, k_dim):
        grid = make_grid(64, 20.0, k_dim)
        n = grid.n_half()
        ks = np.array([-n - 3, -n, -5, 0, 5, n, n + 3])
        h = _rand_state(grid, Space.HARDY_PLUS, rng)
        got, want = _toeplitz_block(grid, h.amplitudes, ks), _slice_loop_block(h, ks)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k_dim", [1, 2])
    def test_block_gather_matches_slice_loop(self, rng, k_dim):
        # an N x m block with one index: column j is the vector form's image
        grid = make_grid(64, 20.0, k_dim)
        n = grid.n_half()
        columns = [_rand_state(grid, Space.HARDY_PLUS, rng) for _ in range(5)]
        block = np.column_stack([h.amplitudes for h in columns])
        for k in (-n - 3, -n, -5, 0, 5, n, n + 3):
            got = _toeplitz_block(grid, block, k)
            want = np.column_stack([_slice_loop_block(h, [k])[:, 0] for h in columns])
            assert got.shape == want.shape and got.strides == want.strides
            assert np.array_equal(got, want)
