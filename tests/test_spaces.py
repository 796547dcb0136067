"""Grid construction, state algebra, and the weighted inner product."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from timearrow import (
    LinOp,
    Space,
    SpaceMismatchError,
    StateVector,
    embed,
    identity_op,
    inner,
    make_grid,
    norm,
    restrict,
    zero_state,
)
from oracles import adjoint, fiberize, project_halfline


def _rand_state(grid, space, rng):
    a = rng.normal(size=grid.dim(space)) + 1j * rng.normal(size=grid.dim(space))
    return StateVector(grid, space, a)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        for bad in (0, 6, 12, 100, 1000):
            with pytest.raises(ValueError):
                make_grid(bad, 50.0)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            make_grid(4, 50.0)
        make_grid(8, 50.0)  # smallest legal size

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_grid(64, -1.0)
        with pytest.raises(ValueError):
            make_grid(64, 0.0)
        with pytest.raises(ValueError):
            make_grid(64, 50.0, k_dim=0)
        with pytest.raises(ValueError, match="sigma_max"):
            make_grid(64, np.inf)
        with pytest.raises(ValueError, match="k_dim"):
            make_grid(64, 50.0, 1.5)
        with pytest.raises(ValueError, match="n_sigma"):
            make_grid(64.0, 50.0)
        grid = make_grid(np.int64(64), 50.0, np.int32(2))  # numpy integers pass
        assert (grid.n_sigma, grid.k_dim) == (64, 2)

    def test_lattice_relations(self):
        g = make_grid(64, 20.0, 2)
        assert g.delta_sigma == pytest.approx(2 * 20.0 / 64, rel=1e-15)
        assert g.delta_sigma * g.delta_tau == pytest.approx(2 * np.pi / 64, rel=1e-15)
        assert g.t_window == pytest.approx(64 * g.delta_tau, rel=1e-15)

    def test_lattices_are_half_offset(self):
        g = make_grid(64, 20.0)
        s, t = g.sigma(), g.tau()
        # symmetric around 0 with no bin at the origin
        assert s[0] == pytest.approx(-s[-1], rel=1e-15)
        assert np.all(np.abs(s) >= g.delta_sigma / 2 - 1e-12)
        assert np.all(np.abs(t) >= g.delta_tau / 2 - 1e-12)
        assert np.allclose(np.diff(s), g.delta_sigma)
        assert np.allclose(np.diff(t), g.delta_tau)

    def test_positive_halves(self):
        g = make_grid(64, 20.0)
        assert np.array_equal(g.sigma_pos(), g.sigma()[32:])
        assert np.all(g.sigma_pos() > 0)

    def test_dims(self):
        g = make_grid(64, 20.0, 2)
        assert g.dim(Space.FULL_LINE) == 128
        assert g.dim(Space.HALF_LINE_POS) == 64
        assert g.dim(Space.HARDY_PLUS) == 64
        assert g.n_half() == 32


class TestStateAlgebra:
    def test_arithmetic(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        g = _rand_state(small_grid, Space.FULL_LINE, rng)
        h = (f + g) - g
        assert norm(h - f) <= 1e-12 * norm(f)
        assert norm(f * 2.0 - (f + f)) <= 1e-12 * norm(f)

    def test_inner_carries_sigma_weight(self, small_grid):
        ones = StateVector(
            small_grid, Space.FULL_LINE, np.ones(small_grid.dim(Space.FULL_LINE))
        )
        expected = small_grid.dim(Space.FULL_LINE) * small_grid.delta_sigma
        assert inner(ones, ones).real == pytest.approx(expected, rel=1e-13)
        assert norm(ones) ** 2 == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inner_is_sesquilinear(self, seed):
        g = make_grid(16, 5.0)
        r = np.random.default_rng(seed)
        f, h, k = (_rand_state(g, Space.FULL_LINE, r) for _ in range(3))
        a = 0.7 - 0.3j
        assert inner(f, h) == pytest.approx(np.conj(inner(h, f)), abs=1e-12)
        assert inner(f, h * a + k) == pytest.approx(
            a * inner(f, h) + inner(f, k), abs=1e-10
        )

    def test_mixed_space_operations_rejected(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        p = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        with pytest.raises(SpaceMismatchError):
            inner(f, p)
        with pytest.raises(SpaceMismatchError):
            f + p  # noqa: B018

    def test_mixed_grid_operations_rejected(self, small_grid, rng):
        other = make_grid(64, 21.0)
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        g = _rand_state(other, Space.FULL_LINE, rng)
        with pytest.raises(SpaceMismatchError):
            inner(f, g)

    def test_make_state_validates_length(self, small_grid):
        with pytest.raises(ValueError):
            StateVector(small_grid, Space.FULL_LINE, np.ones(5))

    def test_states_are_immutable(self, small_grid):
        f = zero_state(small_grid, Space.FULL_LINE)
        with pytest.raises(ValueError):
            f.amplitudes[0] = 1.0

    def test_zero_state(self, small_grid):
        assert norm(zero_state(small_grid, Space.HARDY_PLUS)) == 0.0


class TestHalfLineProjection:
    def test_complementary(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        back = project_halfline(f, "pos") + project_halfline(f, "neg")
        assert norm(back - f) == 0.0

    def test_idempotent_and_hermitian(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        g = _rand_state(small_grid, Space.FULL_LINE, rng)
        pf = project_halfline(f, "pos")
        assert norm(project_halfline(pf, "pos") - pf) == 0.0
        assert inner(pf, g) == pytest.approx(inner(f, project_halfline(g, "pos")),
                                             abs=1e-12)

    def test_validates_arguments(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        with pytest.raises(ValueError):
            project_halfline(f, "up")
        p = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        with pytest.raises(SpaceMismatchError):
            project_halfline(p, "pos")


class TestEmbedRestrict:
    def test_round_trip_and_isometry(self, small_grid, rng):
        psi = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        f = embed(psi)
        assert f.space is Space.FULL_LINE
        assert norm(f) == pytest.approx(norm(psi), rel=1e-14)
        assert norm(restrict(f) - psi) == 0.0
        # nothing lands on the negative half-line
        assert norm(project_halfline(f, "neg")) == 0.0

    def test_adjoint_pairing(self, small_grid, rng):
        psi = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        assert inner(embed(psi), f) == pytest.approx(inner(psi, restrict(f)),
                                                     abs=1e-12)

    def test_space_tags_enforced(self, small_grid, rng):
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        with pytest.raises(SpaceMismatchError):
            embed(f)
        p = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        with pytest.raises(SpaceMismatchError):
            restrict(p)


class TestLinOp:
    def test_hermitian_flag_validated(self, small_grid, rng):
        n = small_grid.dim(Space.HALF_LINE_POS)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        with pytest.raises(ValueError):
            LinOp(small_grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, a,
                  hermitian=True)
        LinOp(small_grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
              a + a.conj().T, hermitian=True)

    def test_apply_and_adjoint(self, small_grid, rng):
        n = small_grid.dim(Space.HALF_LINE_POS)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        op = LinOp(small_grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, a)
        psi = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        phi = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        assert np.allclose(op.apply(psi).amplitudes, a @ psi.amplitudes)
        assert inner(phi, op.apply(psi)) == pytest.approx(
            inner(adjoint(op).apply(phi), psi), abs=1e-10
        )
        assert np.array_equal(adjoint(adjoint(op)).matrix, op.matrix)

    def test_apply_checks_space(self, small_grid, rng):
        op = identity_op(small_grid, Space.HALF_LINE_POS)
        f = _rand_state(small_grid, Space.FULL_LINE, rng)
        with pytest.raises(SpaceMismatchError):
            op.apply(f)


class TestDiagonalLinOp:
    """A 1-d ``matrix`` is a diagonal stored as a vector; it must act as ``np.diag``."""

    @pytest.fixture()
    def pair(self, small_grid, rng):
        n = small_grid.dim(Space.HALF_LINE_POS)
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        half = Space.HALF_LINE_POS
        return LinOp(small_grid, half, half, d), d

    def test_acts_as_dense_diagonal(self, small_grid, rng, pair):
        op, d = pair
        psi = _rand_state(small_grid, Space.HALF_LINE_POS, rng)
        assert np.array_equal(op.matrix, np.diag(d))
        assert np.allclose(op.apply(psi).amplitudes, np.diag(d) @ psi.amplitudes,
                           rtol=0, atol=1e-14)
        block = rng.normal(size=(d.size, 5)) + 1j * rng.normal(size=(d.size, 5))
        assert np.allclose(op._act(block), np.diag(d) @ block, rtol=0, atol=1e-14)
        assert np.allclose(adjoint(op).matrix, np.diag(d).conj().T, rtol=0, atol=0)

    def test_hermitian_check_asks_for_real_entries(self, small_grid, pair):
        op, d = pair
        half = Space.HALF_LINE_POS
        with pytest.raises(ValueError, match="must be Hermitian"):
            LinOp(small_grid, half, half, d, hermitian=True)
        LinOp(small_grid, half, half, d.real, hermitian=True)
        with pytest.raises(ValueError, match="matching legs"):
            LinOp(small_grid, half, Space.HARDY_PLUS, d.real)
        with pytest.raises(ValueError, match="shape"):
            LinOp(small_grid, half, half, d[:-1])

    def test_identity_is_a_diagonal(self, small_grid):
        ident = identity_op(small_grid, Space.FULL_LINE)
        assert ident.hermitian and ident._entries.ndim == 1
        assert np.array_equal(ident.matrix, np.eye(small_grid.dim(Space.FULL_LINE)))


class TestPerBinLinOp:
    """An operator stored per bin acts as its Kronecker form ``kron(A, I_k)``
    (the oracle), whatever its kind (dense or diagonal)."""

    HALF = Space.HALF_LINE_POS

    @pytest.fixture(params=[1, 2, 4])
    def grid(self, request):
        return make_grid(16, 5.0, request.param)

    def _ops(self, grid, rng):
        ops = {}
        for size, n in (("bin", grid.n_half()), ("full", grid.dim(self.HALF))):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            ops[f"dense-{size}"] = LinOp(grid, self.HALF, self.HALF, a)
            ops[f"diagonal-{size}"] = LinOp(grid, self.HALF, self.HALF, d)
        return ops

    def test_matrix_is_the_kronecker_form(self, grid, rng):
        ops = self._ops(grid, rng)
        k = grid.k_dim
        dense, diagonal = ops["dense-bin"], ops["diagonal-bin"]
        assert np.array_equal(dense.matrix, fiberize(dense._entries, k))
        assert np.array_equal(diagonal.matrix, fiberize(np.diag(diagonal._entries), k))

    def test_apply_and_blocks_match_dense(self, grid, rng):
        n = grid.dim(self.HALF)
        psi = _rand_state(grid, self.HALF, rng)
        block = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        strided = np.ascontiguousarray(block.T).T  # Fortran order: reshape copies
        ops = self._ops(grid, rng)
        wide = rng.normal(size=(grid.n_sigma, grid.n_half())) + 0j
        ops["rectangular-bin"] = LinOp(grid, self.HALF, Space.FULL_LINE, wide)
        for name, op in ops.items():
            m = op.matrix
            assert np.allclose(op.apply(psi).amplitudes, m @ psi.amplitudes,
                               rtol=0, atol=1e-13), name
            for a in (block, strided):
                assert np.allclose(op._act(a), m @ a, rtol=0, atol=1e-13), name

    def test_hermitian_check_matches_dense(self, grid, rng):
        nb = grid.n_half()
        a = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
        for m in (a, fiberize(a, grid.k_dim)):
            with pytest.raises(ValueError, match="must be Hermitian"):
                LinOp(grid, self.HALF, self.HALF, m, hermitian=True)
            LinOp(grid, self.HALF, self.HALF, m + m.conj().T, hermitian=True)

    def test_shape_errors(self, grid):
        nb, n = grid.n_half(), grid.dim(self.HALF)
        bad = [(nb + 1,), (nb, nb + 1), (n, n + 1)] + [(nb, n)] * (grid.k_dim > 1)
        for shape in bad:
            with pytest.raises(ValueError, match="shape"):
                LinOp(grid, self.HALF, self.HALF, np.ones(shape))
        with pytest.raises(ValueError, match="matching legs"):
            LinOp(grid, self.HALF, Space.HARDY_PLUS, np.ones(nb))
