"""Square-root factor, polar isometry, and the contraction semigroup Z."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from timearrow import (
    LinOp,
    Space,
    build_m_f,
    build_model,
    build_omega,
    compact_profile_state,
    inner,
    intertwining_residual,
    make_grid,
    make_state,
    norm,
    random_guarded_state,
    unitary_evolve,
    z_adjoint,
    z_evolve,
    z_matrix,
)
from timearrow.lambda_transform import _prolate_vectors, _z_block
from timearrow.lyapunov import _dft_lookup
from oracles import composition_law, dense_polar_factors, fiberize, perturbed_model


# Oracles of build_model: the square root from the eigendecomposition of the
# Lyapunov operator, and the polar factor from a generic SVD.

def build_lambda(m_f):
    """Positive square root of a LinOp declared hermitian (clip at 1e-12,
    reject eigenvalues below -1e-10)."""
    if not m_f.hermitian:
        raise ValueError("the Lyapunov operator must be a LinOp declared hermitian")
    m = m_f.matrix
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    if vals.min() < -1e-10:
        raise ValueError(f"operator has eigenvalue {vals.min():.3e} below -1e-10")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return LinOp(m_f.grid, m_f.domain, m_f.codomain,
                 0.5 * (root + root.conj().T), hermitian=True)


def build_isometry(omega, lam):
    """Unitary polar factor ``R = U V*`` of ``omega = U S V*``."""
    if omega.grid != lam.grid or omega.domain is not lam.domain:
        raise ValueError("omega and lam must share a grid and domain")
    u, _, vh = np.linalg.svd(omega.matrix)
    return LinOp(omega.grid, omega.domain, omega.codomain, u @ vh)


def _rand_half(grid, rng):
    n = grid.dim(Space.HALF_LINE_POS)
    return make_state(grid, Space.HALF_LINE_POS,
                      rng.normal(size=n) + 1j * rng.normal(size=n))


class TestSquareRoot:
    def test_squares_back(self, model):
        lam = model.lam.matrix
        assert np.linalg.norm(lam @ lam - build_m_f(model.grid).matrix) <= 1e-10
        assert np.linalg.norm(lam - lam.conj().T) <= 1e-12

    def test_spectral_calculus(self, small_grid):
        m = build_m_f(small_grid)
        lam = build_lambda(m)
        vals, vecs = np.linalg.eigh(m.matrix)
        for idx in (0, 7, -1):
            v = vecs[:, idx]
            assert np.allclose(lam.matrix @ v, np.sqrt(max(vals[idx], 0.0)) * v,
                               atol=1e-10)

    def test_norm_identity(self, small_grid, rng):
        m = build_m_f(small_grid)
        lam = build_lambda(m)
        psi = _rand_half(small_grid, rng)
        assert norm(lam.apply(psi)) ** 2 == pytest.approx(
            inner(psi, m.apply(psi)).real, rel=1e-10
        )

    def test_rejects_bad_input(self, small_grid):
        n = small_grid.dim(Space.HALF_LINE_POS)
        flipped = LinOp(small_grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                        -np.eye(n), hermitian=True)
        with pytest.raises(ValueError):
            build_lambda(flipped)
        lopsided = LinOp(small_grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                         np.triu(np.ones((n, n))))
        with pytest.raises(ValueError):
            build_lambda(lopsided)
        # Hermitian and nonnegative, but not declared hermitian
        undeclared = LinOp(small_grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                           build_m_f(small_grid).matrix)
        with pytest.raises(ValueError, match="declared hermitian"):
            build_lambda(undeclared)


class TestPolarIsometry:
    def test_unitary(self, model):
        r = model.isometry.matrix
        n = r.shape[0]
        assert np.linalg.norm(r.conj().T @ r - np.eye(n)) <= 1e-10
        assert np.linalg.norm(r @ r.conj().T - np.eye(n)) <= 1e-10

    def test_polar_identity_matched_pair(self, model):
        # R and Lambda share one eigenbasis of the commuting tridiagonal, so
        # they reproduce the forward map at working precision
        gap = np.linalg.norm(model.isometry.matrix @ model.lam.matrix
                             - build_omega(model.grid).matrix)
        assert gap <= 1e-8

    def test_polar_identity_mixed_routes(self, small_grid, dense_grid):
        # Lambda from an independent eigendecomposition squares the small
        # singular values, so the recomposition loses half the digits there;
        # the residual stays bounded but not at matched-pair level
        for grid, bound in ((small_grid, 1e-6), (dense_grid, 1e-5)):
            om = build_omega(grid)
            lam = build_lambda(build_m_f(grid))
            r = build_isometry(om, lam)
            assert np.linalg.norm(r.matrix @ lam.matrix - om.matrix) <= bound

    def test_regularized_inverse_oracle(self, model):
        # on the well-conditioned subspace R acts as omega composed with the
        # explicit inverse of the singular values
        om = build_omega(model.grid).matrix
        u, s, vh = np.linalg.svd(om)
        keep = s > 1e-6
        cols = vh.conj().T[:, keep]
        expected = (om @ cols) / s[keep]
        got = model.isometry.matrix @ cols
        assert np.linalg.norm(got - expected) <= 1e-8 * np.sqrt(keep.sum())

    def test_dimension_mismatch_rejected(self, small_grid, dense_grid):
        om = build_omega(small_grid)
        lam = build_lambda(build_m_f(dense_grid))
        with pytest.raises(ValueError):
            build_isometry(om, lam)


def _svd_oracle(model):
    u, s, vh = np.linalg.svd(build_omega(model.grid).matrix)
    return u @ vh, (vh.conj().T * s) @ vh, s, vh


def _centred_dft(grid):
    # E = exp(-2 pi i j_c m_c / n) / sqrt(n), j_c = j + 1/2 - N/2
    n, nh = grid.n_sigma, grid.n_half()
    jc = np.arange(nh) + 0.5 - nh / 2
    return np.exp(-2j * np.pi * np.outer(jc, jc) / n) / np.sqrt(n)


def _commuting_tridiagonal(grid):
    n, nh = grid.n_sigma, grid.n_half()
    j = np.arange(1, nh)
    off = np.sin(np.pi * j / n) * np.sin(np.pi * (nh - j) / n)
    return np.diag(off, 1) + np.diag(off, -1)


class TestStructuredFactorization:
    """``build_model`` against a dense SVD of the same forward map."""

    @pytest.fixture(params=["n_dense=4", "n_dense=8", "n_dense=64", "n_dense=512",
                            "fibred"])
    def case(self, request, model):
        if request.param == "n_dense=512":
            return model
        if request.param == "fibred":
            return build_model(make_grid(64, 20.0, 2))
        return build_model(make_grid(2 * int(request.param.split("=")[1]), 20.0, 1))

    def test_matches_svd_oracle(self, case):
        r_svd, lam_svd, s, vh = _svd_oracle(case)
        assert np.abs(case.singular_values - s).max() <= 1e-13
        assert np.linalg.norm(case.lam.matrix - lam_svd) <= 1e-12
        # the SVD's R is rounding noise where sigma is; compare where it is not
        keep = vh.conj().T[:, s > 1e-6]
        gap = np.linalg.norm((case.isometry.matrix - r_svd) @ keep)
        assert gap <= 1e-8 * np.sqrt(keep.shape[1])

    def test_lambda_is_hermitian(self, case):
        # built Hermitian (exact phases, symmetric real blocks), so the
        # LinOp skips its runtime check; this is that check
        lam = case.lam.matrix
        assert case.lam.hermitian
        assert np.linalg.norm(lam - lam.conj().T) <= 1e-12 * np.linalg.norm(lam)

    def test_polar_factor_is_symmetric_and_unitary(self, case):
        # omega = omega^T, so its polar factor is symmetric too, also on the
        # directions whose singular values are rounding noise
        r = case.isometry.matrix
        om = build_omega(case.grid).matrix
        assert np.linalg.norm(om - om.T) <= 1e-13
        assert np.linalg.norm(r - r.T) <= 1e-12
        assert np.linalg.norm(r.conj().T @ r - np.eye(r.shape[0])) <= 1e-12

    @pytest.mark.parametrize("n_dense", [8, 64, 512])
    def test_tridiagonal_commutes_and_parity_alternates(self, n_dense):
        grid = make_grid(2 * n_dense, 20.0, 1)
        e, t = _centred_dft(grid), _commuting_tridiagonal(grid)
        assert np.linalg.norm(t @ e - e @ t) <= 1e-12
        _, q = np.linalg.eigh(t)
        q = q[:, ::-1]
        k = np.arange(n_dense)
        # q_k is even for even k and odd for odd k ...
        assert np.abs(q[::-1] - q * (-1.0) ** k).max() <= 1e-12
        # ... and E q_k = (-i)^k sigma_k q_k with sigma_k descending
        mu = np.einsum("jk,jk->k", q, e @ q)
        sigma = mu * 1j ** k
        assert np.abs(sigma.imag).max() <= 1e-13
        assert np.abs(sigma.real - build_model(grid).singular_values).max() <= 1e-13
        assert np.linalg.norm(e @ q - q * mu) <= 1e-12

    @pytest.mark.parametrize("n_dense", [16, 64, 256, 2048])
    def test_odd_block_is_a_signed_copy_of_the_even_block(self, n_dense):
        # the halves solve the leading block A plus (A_+) or minus (A_-) the
        # coupling in its last diagonal place, and A_- = -S A_+ S exactly,
        # S = diag((-1)^j); so from the one matrix v of A_+'s eigenvectors,
        # ascending, the parity rule reads the even half as v reversed and the
        # odd half as S v, which solves A_-: both with eigenvalues descending
        t = _commuting_tridiagonal(make_grid(2 * n_dense, 20.0, 1))
        h = n_dense // 2
        a_plus, a_minus = t[:h, :h].copy(), t[:h, :h].copy()
        a_plus[-1, -1], a_minus[-1, -1] = t[h - 1, h], -t[h - 1, h]
        s = (-1.0) ** np.arange(h)
        assert np.array_equal(a_minus, -(s[:, None] * a_plus * s))
        v = _prolate_vectors(2 * n_dense)
        assert v.flags.c_contiguous and v.dtype == np.float64
        for a, y in ((a_plus, v[:, ::-1]), (a_minus, s[:, None] * v)):
            mu = np.einsum("jk,jk->k", y, a @ y)
            assert np.all(np.diff(mu) < 0)
            assert np.abs(a @ y - y * mu).max() <= 1e-13

    def test_build_solves_one_eigenproblem(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        build_model(make_grid(1024, 20.0, 2))
        assert shapes == [(256, 256)]

    def test_closed_form_pieces(self, small_grid):
        # omega = gamma D E D with D = diag(exp(-i pi j_c / 2))
        nh = small_grid.n_half()
        d = np.exp(-0.5j * np.pi * (np.arange(nh) + 0.5 - nh / 2))
        gamma = np.exp(-0.25j * np.pi * nh)
        rebuilt = gamma * d[:, None] * _centred_dft(small_grid) * d
        assert np.abs(build_omega(small_grid).matrix - rebuilt).max() <= 1e-14


class TestFibres:
    """At every ``k_dim`` the model stores the scalar model's blocks, and the
    dense matrices are their Kronecker forms (the oracle)."""

    @pytest.mark.parametrize("k_dim", [1, 2, 4])
    def test_stored_blocks_and_kronecker_forms(self, k_dim):
        scalar_grid, grid = make_grid(64, 20.0, 1), make_grid(64, 20.0, k_dim)
        scalar, model = build_model(scalar_grid), build_model(grid)
        pairs = [(model.lam, scalar.lam), (model.isometry, scalar.isometry),
                 (build_omega(grid), build_omega(scalar_grid)),
                 (build_m_f(grid), build_m_f(scalar_grid))]
        for op, ref in pairs:
            assert op._entries.shape == (grid.n_half(), grid.n_half())
            assert np.array_equal(op._entries, ref._entries)
            assert np.array_equal(op.matrix, fiberize(ref.matrix, k_dim))
        assert np.array_equal(model.singular_values,
                              np.repeat(scalar.singular_values, k_dim))


def _held_bytes(obj, seen=None) -> int:
    """Bytes of every array reachable through dataclass fields and tuples,
    each underlying buffer counted once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        while obj.base is not None:
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(x, seen) for x in obj)
    return 0


class TestFactoredModel:
    """``lam`` and ``R`` act from the one real eigenvector matrix ``v``, which
    holds both halves; their dense forms are built on request and agree with
    the dense assembly."""

    @pytest.mark.parametrize("n_dense, k_dim", [(8, 1), (8, 2), (64, 1), (64, 2),
                                                (512, 1), (512, 2)])
    def test_factored_action_matches_dense_matrix(self, n_dense, k_dim):
        model = build_model(make_grid(2 * n_dense, 20.0, k_dim))
        rng = np.random.default_rng(414)
        n = model.grid.dim(Space.HALF_LINE_POS)
        block = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        for op in (model.lam, model.isometry):
            m = op.matrix
            for a in (block[:, 0], block, np.asfortranarray(block)):
                for got, want in ((op._act(a), m @ a),
                                  (op._act(a, adjoint=True), m.conj().T @ a)):
                    assert got.shape == a.shape
                    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n_dense", [4, 8, 64, 512])
    def test_dense_forms_match_the_assembly_oracle(self, n_dense):
        model = build_model(make_grid(2 * n_dense, 20.0, 1))
        lam, r = dense_polar_factors(model)
        assert np.array_equal(model.isometry._entries, r)
        assert np.linalg.norm(model.lam._entries - lam) <= 1e-13 * np.linalg.norm(lam)

    @pytest.mark.parametrize("n_dense", [4, 64, 512])
    def test_singular_values_match_the_complex_block_route(self, n_dense):
        # the even / odd singular values from the real and imaginary parts of
        # the complex quarter of E, on the halves the parity rule reads off v
        # (v reversed, S v), as one array: the same digits
        n, h = 2 * n_dense, n_dense // 2
        index, table = _dft_lookup(n, 2 * np.arange(h) + 1 - n_dense)
        e = table[index]
        v = _prolate_vectors(n)
        y_even = np.ascontiguousarray(v[:, ::-1])
        y_odd = v * ((-1.0) ** np.arange(h))[:, None]
        want = np.concatenate([2.0 * np.linalg.norm(e.real @ y_even, axis=0),
                               2.0 * np.linalg.norm(e.imag @ y_odd, axis=0)])
        assert np.array_equal(build_model(make_grid(n, 20.0, 1)).lam.c, want)

    def test_model_holds_one_real_matrix(self, model):
        # n_dense 512: one real h x h matrix v shared by lam and R, plus O(N)
        # vectors; no second half, no n x n matrix, real or complex
        n, h = model.grid.n_half(), model.grid.n_half() // 2
        v = model.lam.v
        assert model.isometry.v is v
        assert v.shape == (h, h)
        assert v.dtype == np.float64 and v.flags.c_contiguous
        assert _held_bytes(model) <= h * h * 8 + 128 * n

    def test_apply_copies_no_half_size_matrix(self, model, rng):
        # S and the column reversal act on the n x 4 block, so an apply and
        # its adjoint allocate O(n) columns, never an h x h copy of v
        n, h = model.grid.n_half(), model.grid.n_half() // 2
        block = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        for op in (model.lam, model.isometry):
            for adjoint in (False, True):
                tracemalloc.start()
                try:
                    op._act(block, adjoint=adjoint)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < h * h * 8 // 2


class TestContractionSemigroup:
    def test_identity_at_zero(self, model, rng):
        psi = _rand_half(model.grid, rng)
        assert norm(z_evolve(model, psi, 0.0) - psi) <= 1e-12 * norm(psi)
        assert np.linalg.norm(z_matrix(model, 0.0) -
                              np.eye(model.grid.dim(Space.HALF_LINE_POS))) <= 1e-10

    def test_semigroup_law(self, model):
        dt = model.grid.delta_tau
        for k1, k2 in ((1, 2), (8, 13), (32, 32)):
            two = z_matrix(model, k1 * dt) @ z_matrix(model, k2 * dt)
            one = z_matrix(model, (k1 + k2) * dt)
            assert np.linalg.norm(two - one) <= 1e-8

    @pytest.mark.parametrize("eps", [3e-6, 1e-6])
    @pytest.mark.parametrize("k_dim", [1, 4])
    @pytest.mark.parametrize("n_dense", [4, 32, 64])
    def test_composition_law_is_a_block_of_the_defect(self, n_dense, k_dim, eps):
        # Z(a)Z(b) - Z(a+b) = R[:n-a]^H G[a:, :n-b] R[b:], G = R R^H - I, for
        # any R: on a perturbed v, as matrices, to a relative 1e-10; at
        # n_dense 32 the pair (20, 44) has a < n <= b and both sides are 0
        model = perturbed_model(build_model(make_grid(2 * n_dense, 100.0, k_dim)), eps)
        r = model.isometry._entries
        g = r @ r.conj().T - np.eye(n_dense)
        for a, b in ((1, 2), (3, 5), (8, 13), (16, 21), (20, 44), (32, 32)):
            dense = composition_law(model, a, b)
            m = max(n_dense - b, 0)
            block = fiberize(r[: max(n_dense - a, 0)].conj().T @ g[a:, :m] @ r[b:],
                             k_dim)
            if a < n_dense <= b:
                assert not dense.any() and not block.any()
            assert np.linalg.norm(dense - block) <= 1e-10 * np.linalg.norm(block)

    def test_norms_never_increase(self, model, rng):
        psi = _rand_half(model.grid, rng)
        dt = model.grid.delta_tau
        values = [norm(z_evolve(model, psi, k * dt)) for k in (0, 1, 2, 5, 13, 64, 256)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_matrix_and_state_routes_agree(self, model, rng):
        psi = _rand_half(model.grid, rng)
        t = 9 * model.grid.delta_tau
        via_matrix = z_matrix(model, t) @ psi.amplitudes
        assert np.allclose(z_evolve(model, psi, t).amplitudes, via_matrix,
                           atol=1e-12)

    def test_unitary_transport_to_shift(self, model):
        # R Z(t) R^H must be the literal truncated left shift
        r = model.isometry.matrix
        nh = model.grid.n_half()
        for k in (1, 7, 40):
            z = z_matrix(model, k * model.grid.delta_tau)
            shift = np.eye(nh, k=k, dtype=np.complex128)
            assert np.linalg.norm(r @ z @ r.conj().T - shift) <= 1e-10

    def test_adjoint_is_conjugate_transpose(self, model, rng):
        psi = _rand_half(model.grid, rng)
        phi = _rand_half(model.grid, rng)
        t = 21 * model.grid.delta_tau
        assert inner(z_evolve(model, psi, t), phi) == pytest.approx(
            inner(psi, z_adjoint(model, phi, t)), abs=1e-10
        )

    def test_strong_decay_on_compact_profiles(self, model, rng):
        phi = compact_profile_state(model.grid, rng)
        transported = model.lam.apply(phi)
        late = model.grid.t_window / 4
        assert norm(z_evolve(model, transported, late)) <= 1e-6 * norm(transported)

    def test_space_tag_enforced(self, model, rng):
        n = model.grid.dim(Space.FULL_LINE)
        f = make_state(model.grid, Space.FULL_LINE, np.ones(n))
        with pytest.raises(Exception):
            z_evolve(model, f, 0.0)


class TestZBlock:
    """``_z_block`` against the dense route :func:`z_matrix`, column by
    column: one column per lattice index, or one index for a block."""

    @staticmethod
    def _case(k_dim, m):
        grid = make_grid(64, 20.0, k_dim)
        rng = np.random.default_rng(413)
        shape = (grid.dim(Space.HALF_LINE_POS), m)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return build_model(grid), a[:, 0] if m == 1 else a

    @staticmethod
    def _dense(model, k):
        z = z_matrix(model, abs(k) * model.grid.delta_tau)
        return z if k >= 0 else z.conj().T

    @pytest.mark.parametrize("sign", [1, -1], ids=["Z", "Z*"])
    @pytest.mark.parametrize("k_dim", [1, 2])
    def test_vector_columns_match_dense_route(self, k_dim, sign):
        model, a = self._case(k_dim, 1)
        bins = model.grid.n_half()
        ks = sign * np.array([0, 1, 5, bins - 1, bins, bins + 3])
        got = _z_block(model, a, ks)
        assert got.shape == (a.size, ks.size)
        for col, k in zip(got.T, ks):
            want = self._dense(model, k) @ a
            assert np.linalg.norm(col - want) <= 1e-12 * np.linalg.norm(a), k
        # the shift has crossed every bin: nothing is left, in either direction
        assert not got[:, np.abs(ks) >= bins].any()

    @pytest.mark.parametrize("k_dim", [1, 2])
    def test_block_columns_match_dense_route(self, k_dim):
        model, block = self._case(k_dim, 3)
        bins = model.grid.n_half()
        for k in (0, 3, -3, bins - 1, -bins):
            got = _z_block(model, block, k)
            assert got.shape == block.shape
            want = self._dense(model, k)
            for j in range(block.shape[1]):
                gap = np.linalg.norm(got[:, j] - want @ block[:, j])
                assert gap <= 1e-12 * np.linalg.norm(block[:, j]), (k, j)


class TestIntertwining:
    def test_forward_relation_on_guarded_states(self, model):
        # Lambda carries the unitary flow to Z on states with guarded
        # profiles
        rng = np.random.default_rng(401)
        states = [random_guarded_state(model.grid, rng) for _ in range(5)]
        for k in (0, 1, 16, 64):
            fwd, _ = intertwining_residual(model, k * model.grid.delta_tau, states)
            assert fwd <= 1e-8

    def test_adjoint_relation_on_transported_states(self, model):
        # the reverse identity moves mass backward, so it needs states whose
        # TRANSPORTED profile is guarded: images of guarded states under
        # Lambda qualify, raw guarded states generally do not
        rng = np.random.default_rng(402)
        transported = [model.lam.apply(random_guarded_state(model.grid, rng))
                       for _ in range(5)]
        for k in (1, 16, 64):
            _, adj = intertwining_residual(model, k * model.grid.delta_tau,
                                           transported)
            assert adj <= 1e-8

    def test_grid_form_matches_per_time_oracle(self, model, monkeypatch):
        # the per-time formulas, one matrix-vector product per state and
        # time, against the block over the grid (whole, and in chunks)
        from timearrow import evolution

        rng = np.random.default_rng(403)
        lam, dt = model.lam, model.grid.delta_tau
        times = np.array([0, 1, 7, 16, 64, 300]) * dt
        for _ in range(3):
            psi = random_guarded_state(model.grid, rng)
            chi = lam.apply(psi)
            fwd_oracle = max(
                norm(lam.apply(unitary_evolve(psi, t)) - z_evolve(model, chi, t))
                for t in times) / norm(psi)
            adj_oracle = max(
                norm(unitary_evolve(lam.apply(chi), -t)
                     - lam.apply(z_adjoint(model, chi, t)))
                for t in times) / norm(chi)
            fwd, _ = intertwining_residual(model, times, [psi])
            _, adj = intertwining_residual(model, times, [chi])
            assert type(fwd) is float and type(adj) is float
            assert abs(fwd - fwd_oracle) <= 1e-15
            assert abs(adj - adj_oracle) <= 1e-15
            with monkeypatch.context() as patch:
                patch.setattr(evolution, "_BLOCK_COLUMNS", 4)
                assert len(evolution._column_chunks(times.size)) == 2
                assert abs(intertwining_residual(model, times, [psi])[0] - fwd) <= 1e-15
                assert abs(intertwining_residual(model, times, [chi])[1] - adj) <= 1e-15

    def test_scalar_time_is_the_one_column_grid(self, model, rng):
        states = [random_guarded_state(model.grid, rng) for _ in range(2)]
        t = 16 * model.grid.delta_tau
        scalar = intertwining_residual(model, t, states)
        assert all(type(v) is float for v in scalar)
        assert scalar == intertwining_residual(model, np.array([t]), states)

    def test_forward_equals_omega_route(self, model, rng):
        # composing the polar identity with the Toeplitz intertwining gives
        # the same statement through omega; spot-check one state
        from timearrow import apply_omega, toeplitz_step

        psi = random_guarded_state(model.grid, rng)
        t = 16 * model.grid.delta_tau
        lhs = apply_omega(unitary_evolve(psi, t))
        rhs = toeplitz_step(apply_omega(psi), t)
        assert norm(lhs - rhs) <= 1e-8 * norm(psi)

    def test_empty_state_set_rejected(self, model):
        with pytest.raises(ValueError):
            intertwining_residual(model, 0.0, [])
