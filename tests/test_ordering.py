"""Past/future projections, the spectral measure, and the ordering operator."""

import collections
import tracemalloc

import numpy as np
import pytest

from timearrow import (
    LinOp,
    OffLatticeTimeError,
    Space,
    StateVector,
    apply_omega,
    assemble_T,
    build_m_f,
    build_model,
    compact_profile_state,
    correspondence_check,
    future_projection,
    identity_op,
    intertwining_residual,
    irreversible_matrix_element,
    kernel_witness,
    lyapunov_curve,
    make_grid,
    norm,
    projection_rank,
    random_guarded_state,
    spectral_measure,
    toeplitz_step,
    unitary_evolve,
    z_adjoint,
    z_evolve,
    z_matrix,
)
from timearrow import evolution
from timearrow.lambda_transform import ProlateOp
from timearrow.ordering import _CLUSTER_GAP, _row_weighted
from oracles import (
    adjoint,
    fiberize,
    fibre_ordering_spectrum,
    gram_panel_residuals,
    increment,
    inner,
    lyapunov_expectation,
    past_projection,
    perturbed_model,
    projection,
)


def _rounded(grid, t):
    # the nearest lattice time
    return evolution._snap(grid, t)[0] * grid.delta_tau


def _rand_half(grid, rng):
    n = grid.dim(Space.HALF_LINE_POS)
    return StateVector(grid, Space.HALF_LINE_POS,
                       rng.normal(size=n) + 1j * rng.normal(size=n))


def _hermitian_op(grid, rng):
    n = grid.dim(Space.HALF_LINE_POS)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return LinOp(grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                 0.5 * (a + a.conj().T), hermitian=True)


def _perturbed_family(grid, eps, ks):
    """Family at lattice indices ``ks`` whose R is moved off unitarity by
    ``eps`` through the model's eigenvector matrix ``v``."""
    return spectral_measure(perturbed_model(build_model(grid), eps), ks * grid.delta_tau)


def _dense_residuals(grid, r, ends):
    """``residuals()`` rows from dense products of the rows of the full-size
    ``R``: ``P = R[:e]^H R[:e]``, the previous ``Q`` and ``R[e:]^H R[e:]``."""
    eye = np.eye(r.shape[0])
    out, q = [], np.zeros_like(eye)
    for e in ends:
        p = r[:e].conj().T @ r[:e]
        rank = projection_rank(LinOp(grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, p))
        future = r[e:].conj().T @ r[e:]
        out.append((rank, np.linalg.norm(p @ p - p), np.linalg.norm(q @ p - q),
                    np.linalg.norm(p + future - eye)))
        q = p
    return out


@pytest.fixture(scope="module")
def fibred():
    # k_dim = 2: lattice bin j owns rows 2j and 2j + 1 of R
    return build_model(make_grid(64, 20.0, 2))


class TestProjectionPair:
    def test_boundary_values_at_zero(self, model):
        nh = model.grid.n_half()
        assert np.linalg.norm(past_projection(model, 0.0).matrix) <= 1e-12
        assert np.linalg.norm(future_projection(model, 0.0).matrix
                              - np.eye(nh)) <= 1e-10

    def test_future_is_exact_projection(self, model):
        q = future_projection(model, 13 * model.grid.delta_tau).matrix
        assert np.linalg.norm(q @ q - q) <= 1e-10
        assert np.linalg.norm(q - q.conj().T) <= 1e-12

    def test_commutator_transports_to_shift_defect(self, model):
        # R [Z, Z*] R^H must be diagonal: +1 where the shift has emptied,
        # -1 on the k bins the finite window clips at the far edge
        r = model.isometry.matrix
        nh = model.grid.n_half()
        k = 40
        p = past_projection(model, k * model.grid.delta_tau).matrix
        diag = np.zeros(nh)
        diag[:k] = 1.0
        diag[nh - k:] = -1.0
        assert np.linalg.norm(r @ p @ r.conj().T - np.diag(diag)) <= 1e-10

    def test_commutator_spectrum_clusters(self, model):
        k = 25
        p = past_projection(model, k * model.grid.delta_tau).matrix
        vals = np.linalg.eigvalsh(p)
        near = lambda x: np.count_nonzero(np.abs(vals - x) < 1e-8)  # noqa: E731
        assert near(1.0) == k
        assert near(-1.0) == k
        assert near(0.0) == model.grid.n_half() - 2 * k

    def test_literal_equals_complement_on_transported_states(self, model):
        rng = np.random.default_rng(402)
        t = 30 * model.grid.delta_tau
        p_lit = past_projection(model, t)
        q = future_projection(model, t)
        for _ in range(4):
            chi = model.lam.apply(random_guarded_state(model.grid, rng))
            complement = chi - q.apply(chi)
            assert norm(p_lit.apply(chi) - complement) <= 1e-8 * norm(chi)

    def test_pair_sums_to_identity_via_complement(self, model):
        dt = model.grid.delta_tau
        fam = spectral_measure(model, np.array([0.0, 16 * dt, 48 * dt]))
        q = future_projection(model, 48 * dt)
        total = projection(fam, 2).matrix + q.matrix
        assert np.linalg.norm(total - np.eye(model.grid.n_half())) <= 1e-10

    def test_range_of_z_adjoint_is_forward_subspace(self, model):
        # Ran Z*(t) is exactly the future subspace at t
        t = 19 * model.grid.delta_tau
        q = future_projection(model, t).matrix
        za = z_matrix(model, t).conj().T
        assert np.linalg.norm((np.eye(q.shape[0]) - q) @ za) <= 1e-10

    def test_z_kills_the_past(self, model, rng):
        # the complement projection lands in Ker Z(t) exactly
        t = 19 * model.grid.delta_tau
        q = future_projection(model, t)
        chi = _rand_half(model.grid, rng)
        past_part = chi - q.apply(chi)
        assert norm(z_evolve(model, past_part, t)) <= 1e-10 * norm(chi)

    def test_witness_leaves_future_by_its_deadline(self, model):
        w = kernel_witness(model.grid, -1j, _rounded(model.grid, 1.0))
        psi = adjoint(model.isometry).apply(w)
        dt = model.grid.delta_tau
        for k in (32, 48, 64):  # t0 snaps to 32 lattice steps on this grid
            q = future_projection(model, k * dt)
            assert norm(q.apply(psi)) <= 5e-2 * norm(psi)


class TestSpectralMeasure:
    def test_family_structure(self, model):
        dt = model.grid.delta_tau
        ks = np.array([0, 8, 16, 32, 64])
        fam = spectral_measure(model, ks * dt)
        nh = model.grid.n_half()
        for i, k in enumerate(ks):
            p = projection(fam, i)
            assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= 1e-10
            assert projection_rank(p) == k
            assert np.trace(p.matrix).real == pytest.approx(k, abs=1e-8)
        for i in range(1, ks.size):
            later, earlier = projection(fam, i), projection(fam, i - 1)
            prod = earlier.matrix @ later.matrix
            assert np.linalg.norm(prod - earlier.matrix) <= 1e-10
        increments = [increment(fam, i) for i in range(ks.size - 1)]
        for inc in increments:
            vals = np.linalg.eigvalsh(inc.matrix)
            assert vals.min() >= -1e-10
            assert vals.max() <= 1 + 1e-10
        telescoped = sum(i.matrix for i in increments)
        last = projection(fam, ks.size - 1).matrix
        assert np.linalg.norm(telescoped - last) <= 1e-10

    def test_additivity_under_refinement(self, model):
        dt = model.grid.delta_tau
        fine = spectral_measure(model, np.arange(0, 33, 4) * dt)
        coarse = spectral_measure(model, np.array([0, 16, 32]) * dt)
        merged = sum(increment(fine, i).matrix for i in range(4))
        assert np.linalg.norm(merged - increment(coarse, 0).matrix) <= 1e-10

    def test_exhausts_for_full_window(self, model):
        dt = model.grid.delta_tau
        nh = model.grid.n_half()
        fam = spectral_measure(model, np.array([0, nh // 2, nh]) * dt)
        assert np.linalg.norm(projection(fam, 2).matrix - np.eye(nh)) <= 1e-10

    def test_residuals_match_dense_route(self, small_grid):
        # a slightly non-unitary R gives residuals well above rounding, so
        # the Gram-block formulas are checked against the dense products
        ks = np.array([0, 4, 9, 20, 32])
        fam = _perturbed_family(small_grid, 1e-6, ks)
        r = fam.isometry.matrix
        eye = np.eye(small_grid.n_half())
        oracle = gram_panel_residuals(fam)
        assert [row[0] for row in fam.residuals()] == [row[0] for row in oracle]
        for i, (rank, idem, nest, comp) in enumerate(oracle):
            p = projection(fam, i).matrix
            future = r[ks[i]:].conj().T @ r[ks[i]:]
            q = projection(fam, i - 1).matrix if i else np.zeros_like(p)
            assert rank == projection_rank(projection(fam, i)) == ks[i]
            assert idem == pytest.approx(np.linalg.norm(p @ p - p), rel=1e-6, abs=1e-14)
            assert nest == pytest.approx(np.linalg.norm(q @ p - q), rel=1e-6, abs=1e-14)
            assert comp == pytest.approx(np.linalg.norm(p + future - eye), rel=1e-6)
        assert max(row[1] for row in oracle) > 1e-7

    def test_residuals_fall_back_to_the_cluster_test(self, small_grid):
        # at 3e-6 |G - I| = 1.53e-4 is above the Weyl certificate's bound,
        # yet every eigenvalue of each G_e is within 5.7e-5 of 1: the ranks
        # come from the cluster test and agree with projection_rank; the
        # oracle's dense residuals match the dense products
        ks = np.array([0, 4, 9, 20, 32])
        fam = _perturbed_family(small_grid, 3e-6, ks)
        got = fam.residuals()
        for i, (rank, idem, nest, comp) in enumerate(gram_panel_residuals(fam)):
            p = projection(fam, i).matrix
            q = projection(fam, i - 1).matrix if i else np.zeros_like(p)
            assert comp > _CLUSTER_GAP
            assert rank == got[i][0] == projection_rank(projection(fam, i)) == ks[i]
            assert idem == pytest.approx(np.linalg.norm(p @ p - p), rel=1e-6, abs=1e-14)
            assert nest == pytest.approx(np.linalg.norm(q @ p - q), rel=1e-6, abs=1e-14)

    def test_residuals_reject_what_projection_rank_rejects(self, small_grid):
        fam = _perturbed_family(small_grid, 1e-3, np.array([0, 4, 9, 20, 32]))
        with pytest.raises(ValueError, match="not clustered"):
            projection_rank(projection(fam, 1))
        with pytest.raises(ValueError, match="not clustered"):
            fam.residuals()

    @pytest.mark.parametrize("n_dense, k_dim, eps", [
        (4, 1, 0.0), (64, 1, 0.0), (64, 4, 0.0), (512, 1, 0.0), (512, 4, 0.0),
        (64, 1, 3e-6), (64, 4, 3e-6), (512, 1, 1e-6),
    ])
    def test_defect_is_the_phased_complex_gram(self, n_dense, k_dim, eps):
        # D* R R^H D - I from the complex dense R at full size, D the phases
        # on R's rows, against the real defect from v, lifted
        model = build_model(make_grid(2 * n_dense, 100.0, k_dim))
        if eps:
            model = perturbed_model(model, eps)
        r = model.isometry.matrix
        phases = np.repeat(model.isometry.left, k_dim)
        want = phases.conj()[:, None] * (r @ r.conj().T) * phases - np.eye(r.shape[0])
        defect = spectral_measure(model, [0.0, model.grid.delta_tau]).defect
        assert defect.dtype == np.float64 and defect.shape == (n_dense, n_dense)
        assert np.abs(fiberize(defect, k_dim) - want).max() <= 1e-14
        if eps:  # well above rounding
            assert np.linalg.norm(defect) > 1e-5

    def test_numbers_never_build_the_dense_R(self, model, monkeypatch):
        calls = collections.Counter()
        entries = ProlateOp._entries

        def counted(op):
            calls["_entries"] += 1
            return entries.fget(op)

        monkeypatch.setattr(ProlateOp, "_entries", property(counted))
        fam = spectral_measure(model, np.array([0, 8, 40, 64]) * model.grid.delta_tau)
        fam.residuals()
        fam.ordering_extremes()
        assert calls["_entries"] == 0
        projection(fam, 1)  # the oracle builds it on request
        assert calls["_entries"] == 1

    def test_grid_validation(self, model):
        dt = model.grid.delta_tau
        with pytest.raises(ValueError):
            spectral_measure(model, np.array([dt, 2 * dt]))  # must start at 0
        with pytest.raises(ValueError):
            spectral_measure(model, np.array([0.0, 2 * dt, dt]))
        with pytest.raises(ValueError):
            spectral_measure(model, np.array([0.0]))

    def test_row_ends_follow_the_times(self, model):
        # one row per lattice step, capped at the row count past the window
        dt, nh = model.grid.delta_tau, model.grid.n_half()
        assert spectral_measure(model, [0.0, dt]).row_ends.tolist() == [0, 1]
        fam = spectral_measure(model, np.array([0, 3, nh, nh + 5]) * dt)
        assert fam.row_ends.tolist() == [0, 3, nh, nh]
        assert not fam.row_ends.flags.writeable

    def test_rank_guard_rejects_non_projection(self, model):
        half = LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                     0.5 * np.eye(model.grid.n_half()), hermitian=True)
        with pytest.raises(ValueError):
            projection_rank(half)
        assert projection_rank(identity_op(model.grid, Space.HALF_LINE_POS)) \
            == model.grid.n_half()


class TestResidualBlocks:
    """The family's columns are norms of blocks of ``R R^H - I`` on the full
    space, and within a relative ``|D|_2`` of the dense residuals ``|P^2 -
    P|`` and ``|Q P - Q|`` (``oracles.gram_panel_residuals``), on the built
    model and off unitarity, with the last row end short of, at and past the
    half window (32 bins)."""

    _CASES = pytest.mark.parametrize("ks", [
        pytest.param([0, 4, 9, 20], id="inside"),
        pytest.param([0, 4, 9, 20, 32], id="full"),
        pytest.param([0, 4, 9, 20, 32, 40], id="past"),
    ])

    @staticmethod
    def _family(k_dim, eps, ks):
        grid = make_grid(64, 20.0, k_dim)
        model = build_model(grid)
        if eps:
            model = perturbed_model(model, eps)
        return spectral_measure(model, np.array(ks) * grid.delta_tau)

    @_CASES
    @pytest.mark.parametrize("k_dim", [1, 4])
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 3e-6])
    def test_columns_are_block_norms_of_the_complex_gram(self, eps, k_dim, ks):
        # |R[:e] R[:e]^H - I|, |R[:q] R[:e]^H - [I 0]| and |R^H R - I| from
        # the complex dense R at full size, to a relative 1e-10 (worst seen
        # 2.6e-11) or 5e-15 (worst seen 7.2e-16, on values of 1e-14 at eps 0)
        fam = self._family(k_dim, eps, ks)
        r = fiberize(fam.isometry._entries, k_dim)
        whole = np.linalg.norm(r.conj().T @ r - np.eye(r.shape[0]))
        rows = fam.residuals()
        q = 0
        for (rank, idem, nest, comp), e in zip(rows, fam.row_ends * k_dim):
            want = (np.linalg.norm(r[:e] @ r[:e].conj().T - np.eye(e)),
                    np.linalg.norm(r[:q] @ r[:e].conj().T - np.eye(q, e)), whole)
            assert rank == e
            assert (idem, nest, comp) == pytest.approx(want, rel=1e-10, abs=5e-15)
            q = e
        if eps:  # well above rounding
            assert min(row[1] for row in rows[1:]) > 1e-6
            assert min(row[2] for row in rows[2:]) > 1e-6

    @_CASES
    @pytest.mark.parametrize("k_dim", [1, 4])
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 3e-6])
    def test_columns_are_the_dense_residuals_to_a_relative_defect(self, eps, k_dim, ks):
        # each dense residual is its block's norm times a factor in 1 +- |D|_2
        # (the residuals docstring): seen at most 0.42 |D|_2 off unitarity and
        # 0.70 |D|_2 = 2.8e-15 on the built model, where rounding adds to it
        fam = self._family(k_dim, eps, ks)
        spectral = np.linalg.norm(fam.defect, 2)
        rows = fam.residuals()
        for got, old in zip(rows, gram_panel_residuals(fam)):
            assert got[0] == old[0]
            assert got[1:] == pytest.approx(old[1:], rel=spectral, abs=1e-15)
        # from one table of prefix sums: exact orderings
        idem, nest, comp = (np.array(col) for col in list(zip(*rows))[1:])
        assert np.all(nest <= idem) and np.all(np.diff(idem) >= 0)
        assert np.all(idem <= comp * (1 + 1e-12))


class TestFibredDenseOracle:
    """Row-slice forms against the literal shift-matrix route at k_dim = 2.

    Fibres are interleaved, so lattice bin j owns rows 2j and 2j + 1 of R;
    the oracle is R^H kron(S_k, I_2) R with S_k the dense truncated shift.
    """

    @staticmethod
    def _z_oracle(model, k):
        nh, kd = model.grid.n_half(), model.grid.k_dim
        shift = np.kron(np.eye(nh, k=k, dtype=np.complex128), np.eye(kd))
        r = model.isometry.matrix
        return r.conj().T @ shift @ r

    @pytest.mark.parametrize("k", [0, 1, 5, 16, 31, 32, 40])
    def test_semigroup_and_projection_pair(self, fibred, k):
        t = k * fibred.grid.delta_tau
        z = self._z_oracle(fibred, k)
        zh = z.conj().T
        assert np.linalg.norm(z_matrix(fibred, t) - z) <= 1e-12
        assert np.linalg.norm(future_projection(fibred, t).matrix - zh @ z) <= 1e-12
        assert np.linalg.norm(past_projection(fibred, t).matrix
                              - (z @ zh - zh @ z)) <= 1e-12
        rng = np.random.default_rng(k)
        psi = _rand_half(fibred.grid, rng)
        scale = norm(psi)
        assert norm(z_evolve(fibred, psi, t)
                    - StateVector(fibred.grid, Space.HALF_LINE_POS,
                                  z @ psi.amplitudes)) <= 1e-12 * scale
        assert norm(z_adjoint(fibred, psi, t)
                    - StateVector(fibred.grid, Space.HALF_LINE_POS,
                                  zh @ psi.amplitudes)) <= 1e-12 * scale

    def test_family_increments_ranks_and_T(self, fibred):
        ks = np.array([0, 3, 8, 20, 32])
        dt = fibred.grid.delta_tau
        fam = spectral_measure(fibred, ks * dt)
        eye = np.eye(fibred.grid.dim(Space.HALF_LINE_POS))
        past = []
        for k in ks:
            z = self._z_oracle(fibred, k)
            past.append(eye - z.conj().T @ z)
        for i, k in enumerate(ks):
            assert np.linalg.norm(projection(fam, i).matrix - past[i]) <= 1e-12
            assert projection_rank(projection(fam, i)) == 2 * k
        t_oracle = np.zeros_like(past[0])
        for i in range(ks.size - 1):
            inc = past[i + 1] - past[i]
            assert np.linalg.norm(increment(fam, i).matrix - inc) <= 1e-12
            t_oracle += 0.5 * (ks[i] + ks[i + 1]) * dt * inc
        assert np.linalg.norm(assemble_T(fam).matrix - t_oracle) <= 1e-12
        assert [row[0] for row in fam.residuals()] == list(2 * ks)
        assert max(max(row[1:]) for row in fam.residuals()) <= 1e-12


class TestKroneckerOracle:
    """The family of the model's ``R``, factored per bin, against dense
    products of its full Kronecker form ``kron(R, I_k)``, whose row ends
    count ``k_dim`` rows per lattice step: ranks exactly, residuals and
    ``T``'s spectrum to rounding."""

    @pytest.mark.parametrize("k_dim", [1, 2, 4])
    @pytest.mark.parametrize("eps", [0.0, 3e-6])
    def test_family_matches_full_size_route(self, k_dim, eps):
        grid = make_grid(64, 20.0, k_dim)
        model = build_model(grid)
        if eps:  # residuals well above rounding, ranks from the cluster test
            model = perturbed_model(model, eps)
        ks = np.array([0, 4, 9, 20, 32])
        times = ks * grid.delta_tau
        per_bin = spectral_measure(model, times)
        r = fiberize(model.isometry._entries, k_dim)
        got, want = gram_panel_residuals(per_bin), _dense_residuals(grid, r, ks * k_dim)
        assert [row[0] for row in per_bin.residuals()] == [row[0] for row in got] \
            == [row[0] for row in want] == list(ks * k_dim)
        assert np.abs(np.array(got)[:, 1:] - np.array(want)[:, 1:]).max() <= 1e-12
        if eps:
            assert min(row[3] for row in got) > _CLUSTER_GAP
        else:  # at rounding level the block norms are the dense residuals too
            got = per_bin.residuals()
            assert np.abs(np.array(got)[:, 1:] - np.array(want)[:, 1:]).max() <= 1e-12
        w = np.zeros(r.shape[0])
        w[: ks[-1] * k_dim] = np.repeat(0.5 * (times[1:] + times[:-1]), np.diff(ks) * k_dim)
        spectrum = np.repeat(fibre_ordering_spectrum(per_bin), k_dim)
        dense = np.linalg.eigvalsh((r.conj().T * w) @ r)
        assert spectrum.shape == dense.shape
        assert np.abs(spectrum - dense).max() <= 1e-12

    @pytest.mark.parametrize("k_dim", [1, 4])
    def test_rejects_what_the_full_size_route_rejects(self, k_dim):
        grid = make_grid(64, 20.0, k_dim)
        ks = np.array([0, 4, 9, 20, 32])
        fam = _perturbed_family(grid, 1e-3, ks)
        with pytest.raises(ValueError, match="not clustered"):
            fam.residuals()
        with pytest.raises(ValueError, match="not clustered"):
            _dense_residuals(grid, fiberize(fam.isometry._entries, k_dim), ks * k_dim)

    def test_structure_at_k_dim_8(self, monkeypatch, rng):
        # the model stays one h x h matrix, the family and the matrix elements
        # n x n: no Kronecker form is built unless a dense matrix is asked for
        calls = collections.Counter()
        kron = np.kron

        def counted(*args, **kwargs):
            calls["kron"] += 1
            return kron(*args, **kwargs)

        monkeypatch.setattr(np, "kron", counted)
        grid = make_grid(64, 20.0, 8)
        nh, half = grid.n_half(), Space.HALF_LINE_POS
        ks = np.array([0, 4, 9, 20, 32])
        model = build_model(grid)
        fam = spectral_measure(model, ks * grid.delta_tau)
        ranks = [row[0] for row in fam.residuals()]
        fam.ordering_extremes()
        psi = _rand_half(grid, rng)
        energy = LinOp(grid, half, half, grid.sigma_pos(), hermitian=True)
        observables = [identity_op(grid, half), energy, _hermitian_op(grid, rng)]
        irreversible_matrix_element(model, psi, psi, observables, ks * grid.delta_tau)
        assert calls["kron"] == 0
        # stored: the one real h x h eigenvector matrix, shared by lam and R
        v = model.lam.v
        assert model.isometry.v is v
        assert v.shape == (nh // 2, nh // 2)
        assert v.dtype == np.float64 and v.flags.c_contiguous
        assert fam.defect.shape == (nh, nh)
        assert ranks == list(8 * ks)
        assert model.isometry.matrix.shape == (8 * nh, 8 * nh)
        assert calls["kron"] == 1


class TestOrderingOperator:
    def test_spectrum_is_midpoints_with_increment_ranks(self, model):
        dt = model.grid.delta_tau
        ks = np.arange(0, 65, 8)
        fam = spectral_measure(model, ks * dt)
        op = assemble_T(fam)
        nh = model.grid.n_half()
        mids = 0.5 * (ks[1:] + ks[:-1]) * dt
        expected = np.sort(np.concatenate([np.repeat(mids, 8),
                                           np.zeros(nh - ks[-1])]))
        vals = np.linalg.eigvalsh(op.matrix)
        assert np.allclose(vals, expected, atol=1e-10)
        assert fam.times[-1] == pytest.approx(ks[-1] * dt)

    @pytest.mark.parametrize("fixture, ks", [
        ("model", [0, 5, 16, 40, 64, 130]),
        ("fibred", [0, 3, 8, 20]),
        ("model", [0, 100, 300, 512]),  # last time at the half window: E = N
    ])
    def test_gram_block_spectrum_matches_dense_T(self, request, fixture, ks):
        m = request.getfixturevalue(fixture)
        fam = spectral_measure(m, np.array(ks) * m.grid.delta_tau)
        dense = np.linalg.eigvalsh(assemble_T(fam).matrix)
        vals = np.repeat(fibre_ordering_spectrum(fam), m.grid.k_dim)
        assert vals.shape == dense.shape
        assert np.max(np.abs(vals - dense)) <= 1e-10

    @pytest.mark.parametrize("k_dim", [1, 4])
    @pytest.mark.parametrize("eps", [0.0, 3e-6])
    @pytest.mark.parametrize("ks", [
        [0, 4, 9, 20],  # E < n: T has a kernel
        [0, 5, 20, 32],  # E = n
        [0, 5, 20, 32, 40, 48],  # past the half window: two empty intervals
    ])
    def test_extremes_within_the_weyl_radius(self, k_dim, eps, ks):
        # the midpoints against the dense T's eigensolve, within
        # times[-1] * |D| >= max(weight) * |D|_2
        grid = make_grid(64, 20.0, k_dim)
        model = build_model(grid)
        if eps:  # a defect well above rounding
            model = perturbed_model(model, eps)
        fam = spectral_measure(model, np.array(ks) * grid.delta_tau)
        lowest, highest = fam.ordering_extremes()
        mids = 0.5 * (fam.times[1:] + fam.times[:-1])
        assert highest == mids[np.diff(fam.row_ends) > 0].max()
        assert lowest == (mids[0] if fam.row_ends[-1] == grid.n_half() else 0.0)
        vals = np.linalg.eigvalsh(assemble_T(fam).matrix)
        radius = fam.times[-1] * fam.residuals()[-1][3]
        assert abs(vals[0] - lowest) <= radius
        assert abs(vals[-1] - highest) <= radius

    def test_commutes_with_family(self, model):
        dt = model.grid.delta_tau
        fam = spectral_measure(model, np.arange(0, 49, 16) * dt)
        op = assemble_T(fam).matrix
        for i in range(1, fam.times.size):
            p = projection(fam, i)
            comm = op @ p.matrix - p.matrix @ op
            assert np.linalg.norm(comm) <= 1e-10

    def test_reproduces_family_spectrally(self, model):
        dt = model.grid.delta_tau
        ks = np.array([0, 16, 40, 64])
        fam = spectral_measure(model, ks * dt)
        op = assemble_T(fam)
        vals, vecs = np.linalg.eigh(op.matrix)
        mids = 0.5 * (ks[1:] + ks[:-1]) * dt
        for j in (1, 2, 3):
            sel = (vals > 1e-10) & (vals <= mids[j - 1] + 1e-10)
            rebuilt = vecs[:, sel] @ vecs[:, sel].conj().T
            assert np.linalg.norm(rebuilt - projection(fam, j).matrix) <= 1e-6

    def test_single_interval_is_scaled_projection(self, small_grid):
        from timearrow import build_model

        m = build_model(small_grid)
        dt = small_grid.delta_tau
        nh = small_grid.n_half()
        fam = spectral_measure(m, np.array([0.0, nh * dt]))
        op = assemble_T(fam)
        # the single increment is the identity, so T = midpoint * I
        assert np.linalg.norm(op.matrix
                              - 0.5 * nh * dt * np.eye(nh)) <= 1e-10

    def test_transported_witness_mean_time(self, model):
        # spectral-support oracle: the witness profile weights time by
        # exp(-2 tau) on [0, 1], whose mean is (1/4 - 3/(4 e^2)) / norm
        w = kernel_witness(model.grid, -1j, _rounded(model.grid, 1.0))
        psi = adjoint(model.isometry).apply(w)
        dt = model.grid.delta_tau
        fam = spectral_measure(model, np.arange(0, 65) * dt)
        op = assemble_T(fam)
        mean = inner(psi, op.apply(psi)).real / norm(psi) ** 2
        analytic = (0.25 - 0.75 * np.exp(-2)) / ((1 - np.exp(-2)) / 2)
        assert mean == pytest.approx(analytic, abs=0.02)
        assert mean == pytest.approx(0.34659, abs=2e-3)
        vals = np.linalg.eigvalsh(op.matrix)
        assert vals.min() >= -1e-8
        assert vals.max() <= fam.times[-1] + 1e-8


class TestMatrixElements:
    def test_identity_observable_reproduces_expectation(self, model):
        rng = np.random.default_rng(403)
        psi = random_guarded_state(model.grid, rng)
        ident = identity_op(model.grid, Space.HALF_LINE_POS)
        times = np.array([0, 8, 32]) * model.grid.delta_tau
        (revs,), (irrs,), (diffs,) = irreversible_matrix_element(model, psi, psi,
                                                                 [ident], times)
        for t, rev, irr, diff in zip(times, revs, irrs, diffs):
            expectation = lyapunov_expectation(psi, t)
            assert rev.real == pytest.approx(expectation, rel=1e-9, abs=1e-12)
            assert diff <= 1e-8 * norm(psi) ** 2

    def test_at_time_zero_both_sides_are_the_dressed_element(self, model):
        rng = np.random.default_rng(404)
        phi = random_guarded_state(model.grid, rng)
        psi = random_guarded_state(model.grid, rng)
        x = _hermitian_op(model.grid, rng)
        [[rev]], [[irr]], _ = irreversible_matrix_element(model, phi, psi, [x], [0.0])
        direct = inner(model.lam.apply(phi), x.apply(model.lam.apply(psi)))
        assert rev == pytest.approx(direct, abs=1e-10)
        assert irr == pytest.approx(direct, abs=1e-10)

    def test_pictures_agree_for_random_observables(self, model):
        rng = np.random.default_rng(405)
        phi = random_guarded_state(model.grid, rng)
        psi = random_guarded_state(model.grid, rng)
        x = _hermitian_op(model.grid, rng)
        scale = norm(phi) * norm(psi) * np.linalg.norm(x.matrix, 2)
        times = np.array([1, 16, 64]) * model.grid.delta_tau
        _, _, (diffs,) = irreversible_matrix_element(model, phi, psi, [x], times)
        for diff in diffs:
            assert diff <= 1e-8 * scale

    def test_past_component_is_irrelevant(self, model, rng):
        # projecting the transported state onto the past annihilates the
        # irreversible side identically
        t = 24 * model.grid.delta_tau
        chi = model.lam.apply(_rand_half(model.grid, rng))
        q = future_projection(model, t)
        past_part = chi - q.apply(chi)
        assert norm(z_evolve(model, past_part, t)) <= 1e-10 * norm(chi)
        assert abs(inner(z_evolve(model, past_part, t),
                         z_evolve(model, chi, t))) <= 1e-8 * norm(chi) ** 2

    def test_non_hermitian_observable_rejected(self, model, rng):
        n = model.grid.n_half()
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, a)
        psi = _rand_half(model.grid, rng)
        with pytest.raises(ValueError):
            irreversible_matrix_element(model, psi, psi, [x], [0.0])
        # a Hermitian matrix counts only when its LinOp is declared hermitian
        undeclared = LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                           0.5 * (a + a.conj().T))
        with pytest.raises(ValueError, match="declared hermitian"):
            irreversible_matrix_element(model, psi, psi, [undeclared], [0.0])


class TestMatrixElementOracle:
    """The trajectory against the projected dense form ``(P phi_lam, Z* x Z P psi_lam)``.

    ``P`` is the future projection and ``Z`` the dense ``z_matrix``; the
    states are arbitrary (not guarded), since ``Z P = Z`` holds on every
    state.
    """

    @pytest.mark.parametrize("which", ["model", "fibred"])
    def test_matches_projected_dense_form(self, request, which):
        m = request.getfixturevalue(which)
        rng = np.random.default_rng(411)
        phi, psi = _rand_half(m.grid, rng), _rand_half(m.grid, rng)
        x = _hermitian_op(m.grid, rng)
        scale = norm(phi) * norm(psi) * np.linalg.norm(x.matrix, 2)
        nh = m.grid.n_half()
        times = np.array([0, 1, 7, nh // 4, nh - 1, nh]) * m.grid.delta_tau
        _, (irr,), _ = irreversible_matrix_element(m, phi, psi, [x], times)
        lam = m.lam.matrix
        for t, got in zip(times, irr):
            p = future_projection(m, t).matrix
            z = z_matrix(m, t)
            a = StateVector(m.grid, Space.HALF_LINE_POS, p @ lam @ phi.amplitudes)
            b = StateVector(m.grid, Space.HALF_LINE_POS,
                            z.conj().T @ x.matrix @ z @ p @ lam @ psi.amplitudes)
            assert abs(got - inner(a, b)) <= 1e-12 * scale

    @pytest.mark.parametrize("which", ["model", "fibred"])
    def test_reversible_side_matches_dense_form(self, request, which):
        # (u(t) phi, lam x lam u(t) psi) with dense matrices
        m = request.getfixturevalue(which)
        rng = np.random.default_rng(412)
        phi, psi = _rand_half(m.grid, rng), _rand_half(m.grid, rng)
        x = _hermitian_op(m.grid, rng)
        scale = norm(phi) * norm(psi) * np.linalg.norm(x.matrix, 2)
        times = np.array([0, 3, m.grid.n_half() // 2]) * m.grid.delta_tau
        (rev,), _, _ = irreversible_matrix_element(m, phi, psi, [x], times)
        dressed = m.lam.matrix @ x.matrix @ m.lam.matrix
        for t, got in zip(times, rev):
            b = StateVector(m.grid, Space.HALF_LINE_POS,
                            dressed @ unitary_evolve(psi, t).amplitudes)
            assert abs(got - inner(unitary_evolve(phi, t), b)) <= 1e-12 * scale

    def test_shared_state_matches_separate_copy(self, model, rng):
        # phi is psi reuses the psi side; an equal copy recomputes it
        psi = _rand_half(model.grid, rng)
        twin = StateVector(model.grid, Space.HALF_LINE_POS, psi.amplitudes.copy())
        x = _hermitian_op(model.grid, rng)
        scale = norm(psi) ** 2 * np.linalg.norm(x.matrix, 2)
        times = np.array([0, 5, 40]) * model.grid.delta_tau
        shared = irreversible_matrix_element(model, psi, psi, [x], times)
        separate = irreversible_matrix_element(model, twin, psi, [x], times)
        for got, expected in zip(shared, separate):
            assert np.abs(got - expected).max() <= 1e-14 * scale

    @pytest.mark.parametrize("which", ["model", "fibred"])
    def test_chunks_match_one_block(self, request, monkeypatch, which):
        # 10 times in chunks of 3 columns against one 10-column block, for a
        # dense and a diagonal observable and for phi distinct from psi
        m = request.getfixturevalue(which)
        rng = np.random.default_rng(413)
        phi, psi = _rand_half(m.grid, rng), _rand_half(m.grid, rng)
        n = m.grid.dim(Space.HALF_LINE_POS)
        half = Space.HALF_LINE_POS
        observables = [_hermitian_op(m.grid, rng),
                       LinOp(m.grid, half, half, rng.normal(size=n), hermitian=True)]
        times = np.array([0, 1, 2, 3, 5, 8, 13, 21, 34, 55]) * m.grid.delta_tau
        for x in observables:
            scale = norm(phi) * norm(psi) * np.linalg.norm(x.matrix, 2)
            whole = irreversible_matrix_element(m, phi, psi, [x], times)
            with monkeypatch.context() as patch:
                patch.setattr(evolution, "_BLOCK_COLUMNS", 3)
                assert len(evolution._column_chunks(times.size)) == 4
                chunked = irreversible_matrix_element(m, phi, psi, [x], times)
            for got, expected in zip(chunked, whole):
                assert np.abs(got - expected).max() <= 1e-14 * scale

    @pytest.mark.parametrize("shared", [True, False])
    def test_each_row_equals_its_single_observable_call(self, model, rng, shared):
        # the command's two observables and a dense one in one call: row i
        # is bit for bit the call with observable i alone
        grid, half = model.grid, Space.HALF_LINE_POS
        psi = _rand_half(grid, rng)
        phi = psi if shared else _rand_half(grid, rng)
        energy = LinOp(grid, half, half, grid.sigma_pos() / grid.sigma_max,
                       hermitian=True)
        observables = [identity_op(grid, half), energy, _hermitian_op(grid, rng)]
        times = np.array([0, 1, 7, 40, 300]) * grid.delta_tau
        batched = irreversible_matrix_element(model, phi, psi, observables, times)
        assert all(got.shape == (3, times.size) for got in batched)
        for i, x in enumerate(observables):
            single = irreversible_matrix_element(model, phi, psi, [x], times)
            for got, want in zip(batched, single):
                assert np.array_equal(got[i], want[0])

    def test_validation_fires_for_any_bad_observable(self, model, rng):
        grid, half = model.grid, Space.HALF_LINE_POS
        psi = _rand_half(grid, rng)
        good = identity_op(grid, half)
        n = grid.dim(half)
        bad = {
            "declared hermitian": LinOp(grid, half, half, rng.normal(size=(n, n))),
            "half-line": identity_op(grid, Space.FULL_LINE),
        }
        for match, x in bad.items():
            for observables in ([x], [good, x], [x, good]):
                with pytest.raises(ValueError, match=match):
                    irreversible_matrix_element(model, psi, psi, observables, [0.0])
        with pytest.raises(ValueError, match="nonempty"):
            irreversible_matrix_element(model, psi, psi, [good, good], [])

    def test_peak_memory_is_about_three_blocks(self):
        # n_dense 512, k_dim 8, 256 times: one block of states is 16 MB; each
        # side's blocks are released before the other side is formed
        grid, half = make_grid(1024, 100.0, 8), Space.HALF_LINE_POS
        model = build_model(grid)
        psi = random_guarded_state(grid, np.random.default_rng(415))
        energy = LinOp(grid, half, half, grid.sigma_pos() / grid.sigma_max,
                       hermitian=True)
        times = np.arange(256) * grid.delta_tau
        block = grid.dim(half) * times.size * 16
        tracemalloc.start()
        try:
            irreversible_matrix_element(model, psi, psi,
                                        [identity_op(grid, half), energy], times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * block

    def test_row_weighted_is_exactly_hermitian(self, model):
        # built as 0.5 (m + m^H), so it skips the runtime check
        w = np.linspace(-1.0, 2.0, model.grid.dim(Space.HALF_LINE_POS))
        op = _row_weighted(model.isometry, 0, None, w)
        assert op.hermitian
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_time_grid_validation(self, model, rng):
        psi = _rand_half(model.grid, rng)
        x = identity_op(model.grid, Space.HALF_LINE_POS)
        with pytest.raises(ValueError):
            irreversible_matrix_element(model, psi, psi, [x], [])
        with pytest.raises(ValueError):
            irreversible_matrix_element(model, psi, psi, [x], [-model.grid.delta_tau])


class TestCorrespondence:
    def test_at_time_zero(self, model, rng):
        psi = _rand_half(model.grid, rng)
        lhs, rhs, rel = correspondence_check(model, psi, 0.0)
        expected = norm(model.lam.apply(psi)) ** 2
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rel <= 1e-12

    def test_reversible_side_matches_dense_oracle(self, model):
        m = build_m_f(model.grid)
        psi = random_guarded_state(model.grid, np.random.default_rng(407))
        scale = norm(psi) ** 2
        for k in (0, 16, 64, 256):
            t = k * model.grid.delta_tau
            lhs, _, _ = correspondence_check(model, psi, t)
            psi_t = unitary_evolve(psi, t)
            oracle = inner(psi_t, m.apply(psi_t)).real
            assert abs(lhs - oracle) <= 1e-12 * scale

    def test_guarded_sweep(self, model):
        rng = np.random.default_rng(406)
        for _ in range(3):
            psi = random_guarded_state(model.grid, rng)
            for k in (1, 16, 64, 256):
                _, _, rel = correspondence_check(model, psi,
                                                 k * model.grid.delta_tau)
                assert rel <= 1e-8

    @pytest.mark.parametrize("which", ["model", "fibred"])
    def test_grid_form_matches_per_time_oracle(self, request, monkeypatch, which):
        # |omega u(t) psi|^2 and |Z(t) lam psi|^2 one time at a time, against
        # the blocks over the grid (whole, and in chunks of 3 columns)
        m = request.getfixturevalue(which)
        psi = _rand_half(m.grid, np.random.default_rng(410))
        ks = np.array([0, 1, 5, 16, 64, 256, m.grid.n_half(), m.grid.n_half() + 3])
        times = ks * m.grid.delta_tau
        transported = m.lam.apply(psi)
        scale = norm(transported) ** 2
        lhs, rhs, rel = correspondence_check(m, psi, times)
        assert all(isinstance(v, np.ndarray) and v.shape == times.shape
                   for v in (lhs, rhs, rel))
        for i, t in enumerate(times):
            lhs_oracle = norm(apply_omega(unitary_evolve(psi, t))) ** 2
            rhs_oracle = norm(z_evolve(m, transported, t)) ** 2
            assert abs(lhs[i] - lhs_oracle) <= 1e-14 * scale
            assert abs(rhs[i] - rhs_oracle) <= 1e-14 * scale
        assert np.array_equal(rel, np.abs(lhs - rhs) / scale)
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "_BLOCK_COLUMNS", 3)
            chunked = correspondence_check(m, psi, times)
        for got, expected in zip(chunked, (lhs, rhs, rel)):
            assert np.abs(got - expected).max() <= 1e-14 * scale

    def test_scalar_time_is_the_one_column_grid(self, model, rng):
        psi = random_guarded_state(model.grid, rng)
        t = 16 * model.grid.delta_tau
        scalar = correspondence_check(model, psi, t)
        assert all(type(v) is float for v in scalar)
        assert scalar == tuple(float(v[0]) for v in
                               correspondence_check(model, psi, np.array([t])))

    def test_compact_profile_collapses(self, model, rng):
        psi = compact_profile_state(model.grid, rng)
        t = 3 * model.grid.n_half() // 4 * model.grid.delta_tau
        lhs, rhs, rel = correspondence_check(model, psi, t)
        initial = norm(model.lam.apply(psi)) ** 2
        assert lhs <= 1e-6 * initial
        assert rhs <= 1e-6 * initial
        assert rel <= 1e-8

    def test_requires_half_line_state(self, model, rng):
        n = model.grid.dim(Space.FULL_LINE)
        f = StateVector(model.grid, Space.FULL_LINE, np.ones(n))
        with pytest.raises(ValueError):
            correspondence_check(model, f, 0.0)


class TestSnappedTime:
    """Every function of a semigroup time rejects off-lattice and non-finite
    times; only ``evolution._snap`` rounds."""

    @pytest.fixture(scope="class")
    def calls(self, model):
        rng = np.random.default_rng(409)
        psi = random_guarded_state(model.grid, rng)
        h = apply_omega(psi)
        x = _hermitian_op(model.grid, rng)
        dt = model.grid.delta_tau
        # in the grid forms the bad time sits between two lattice times
        return {
            "correspondence_check": lambda t: correspondence_check(model, psi, t),
            "intertwining_residual": lambda t: intertwining_residual(model, t, [psi]),
            "irreversible_matrix_element": lambda t: irreversible_matrix_element(
                model, psi, psi, [x], [0.0, t, 12 * dt]),
            "toeplitz_step": lambda t: toeplitz_step(h, t),
            "z_matrix": lambda t: z_matrix(model, t),
            "z_evolve": lambda t: z_evolve(model, psi, t),
            "z_adjoint": lambda t: z_adjoint(model, psi, t),
            "lyapunov_curve": lambda t: lyapunov_curve(psi, [0.0, t, 12 * dt]),
            "spectral_measure": lambda t: spectral_measure(model, [0.0, t, 12 * dt]),
            "future_projection": lambda t: future_projection(model, t),
        }

    NAMES = ["correspondence_check", "intertwining_residual",
             "irreversible_matrix_element", "toeplitz_step", "z_matrix",
             "z_evolve", "z_adjoint", "lyapunov_curve", "spectral_measure",
             "future_projection"]

    @pytest.mark.parametrize("name", NAMES)
    def test_off_lattice_time_rejected_without_snap(self, model, calls, name):
        for t in (10.3 * model.grid.delta_tau, float("nan"), float("inf")):
            with pytest.raises(OffLatticeTimeError):
                calls[name](t)
