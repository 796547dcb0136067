"""Past/future projections, the spectral measure, and the ordering operator."""

import warnings

import numpy as np
import pytest

from timearrow import (
    LinOp,
    OffLatticeTimeError,
    OffLatticeWarning,
    Space,
    assemble_T,
    build_m_f,
    build_model,
    compact_profile_state,
    correspondence_check,
    future_projection,
    identity_op,
    inner,
    intertwining_residual,
    irreversible_matrix_element,
    kernel_witness,
    lyapunov_expectation,
    make_grid,
    make_state,
    norm,
    past_projection,
    projection_rank,
    random_guarded_state,
    spectral_measure,
    unitary_evolve,
    z_adjoint,
    z_evolve,
    z_matrix,
)


def _rand_half(grid, rng):
    n = grid.dim(Space.HALF_LINE_POS)
    return make_state(grid, Space.HALF_LINE_POS,
                      rng.normal(size=n) + 1j * rng.normal(size=n))


def _hermitian_op(grid, rng):
    n = grid.dim(Space.HALF_LINE_POS)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return LinOp(grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                 0.5 * (a + a.conj().T), hermitian=True)


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
        total = fam.projection(2).matrix + q.matrix
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
        with pytest.warns(OffLatticeWarning):
            w = kernel_witness(model.grid, -1j, 1.0)
        psi = model.isometry.adjoint().apply(w)
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
            p = fam.projection(i)
            assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= 1e-10
            assert projection_rank(p) == k
            assert np.trace(p.matrix).real == pytest.approx(k, abs=1e-8)
        for i in range(1, ks.size):
            later, earlier = fam.projection(i), fam.projection(i - 1)
            prod = earlier.matrix @ later.matrix
            assert np.linalg.norm(prod - earlier.matrix) <= 1e-10
        increments = [fam.increment(i) for i in range(ks.size - 1)]
        for inc in increments:
            vals = np.linalg.eigvalsh(inc.matrix)
            assert vals.min() >= -1e-10
            assert vals.max() <= 1 + 1e-10
        telescoped = sum(i.matrix for i in increments)
        assert np.linalg.norm(telescoped - fam.projection(ks.size - 1).matrix) <= 1e-10

    def test_additivity_under_refinement(self, model):
        dt = model.grid.delta_tau
        fine = spectral_measure(model, np.arange(0, 33, 4) * dt)
        coarse = spectral_measure(model, np.array([0, 16, 32]) * dt)
        merged = sum(fine.increment(i).matrix for i in range(4))
        assert np.linalg.norm(merged - coarse.increment(0).matrix) <= 1e-10

    def test_exhausts_for_full_window(self, model):
        dt = model.grid.delta_tau
        nh = model.grid.n_half()
        fam = spectral_measure(model, np.array([0, nh // 2, nh]) * dt)
        assert np.linalg.norm(fam.projection(2).matrix - np.eye(nh)) <= 1e-10

    def test_residuals_match_dense_route(self, small_grid):
        # a slightly non-unitary R gives residuals well above rounding, so
        # the Gram-block formulas are checked against the dense products
        rng = np.random.default_rng(31)
        m = build_model(small_grid)
        r = m.isometry.matrix + 1e-6 * (rng.normal(size=m.isometry.matrix.shape)
                                        + 1j * rng.normal(size=m.isometry.matrix.shape))
        iso = LinOp(small_grid, Space.HALF_LINE_POS, Space.HARDY_PLUS, r)
        ks = np.array([0, 4, 9, 20, 32])
        fam = type(spectral_measure(m, ks * small_grid.delta_tau))(
            isometry=iso, times=ks * small_grid.delta_tau, row_ends=ks)
        eye = np.eye(small_grid.n_half())
        for i, (rank, idem, nest, comp) in enumerate(fam.residuals()):
            p = fam.projection(i).matrix
            future = r[ks[i]:].conj().T @ r[ks[i]:]
            q = fam.projection(i - 1).matrix if i else np.zeros_like(p)
            assert rank == projection_rank(fam.projection(i)) == ks[i]
            assert idem == pytest.approx(np.linalg.norm(p @ p - p), rel=1e-6, abs=1e-14)
            assert nest == pytest.approx(np.linalg.norm(q @ p - q), rel=1e-6, abs=1e-14)
            assert comp == pytest.approx(np.linalg.norm(p + future - eye), rel=1e-6)
        assert max(row[1] for row in fam.residuals()) > 1e-7

    def test_grid_validation(self, model):
        dt = model.grid.delta_tau
        with pytest.raises(ValueError):
            spectral_measure(model, np.array([dt, 2 * dt]))  # must start at 0
        with pytest.raises(ValueError):
            spectral_measure(model, np.array([0.0, 2 * dt, dt]))
        with pytest.raises(ValueError):
            spectral_measure(model, np.array([0.0]))

    def test_rank_guard_rejects_non_projection(self, model):
        half = LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                     0.5 * np.eye(model.grid.n_half()), hermitian=True)
        with pytest.raises(ValueError):
            projection_rank(half)
        assert projection_rank(identity_op(model.grid, Space.HALF_LINE_POS)) \
            == model.grid.n_half()


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
                    - make_state(fibred.grid, Space.HALF_LINE_POS,
                                 z @ psi.amplitudes)) <= 1e-12 * scale
        assert norm(z_adjoint(fibred, psi, t)
                    - make_state(fibred.grid, Space.HALF_LINE_POS,
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
            assert np.linalg.norm(fam.projection(i).matrix - past[i]) <= 1e-12
            assert projection_rank(fam.projection(i)) == 2 * k
        t_oracle = np.zeros_like(past[0])
        for i in range(ks.size - 1):
            inc = past[i + 1] - past[i]
            assert np.linalg.norm(fam.increment(i).matrix - inc) <= 1e-12
            t_oracle += 0.5 * (ks[i] + ks[i + 1]) * dt * inc
        assert np.linalg.norm(assemble_T(fam).matrix.matrix - t_oracle) <= 1e-12
        assert [row[0] for row in fam.residuals()] == list(2 * ks)
        assert max(max(row[1:]) for row in fam.residuals()) <= 1e-12


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
        vals = np.linalg.eigvalsh(op.matrix.matrix)
        assert np.allclose(vals, expected, atol=1e-10)
        assert op.truncation_time == pytest.approx(ks[-1] * dt)

    def test_commutes_with_family(self, model):
        dt = model.grid.delta_tau
        fam = spectral_measure(model, np.arange(0, 49, 16) * dt)
        op = assemble_T(fam).matrix.matrix
        for i in range(1, fam.times.size):
            p = fam.projection(i)
            comm = op @ p.matrix - p.matrix @ op
            assert np.linalg.norm(comm) <= 1e-10

    def test_reproduces_family_spectrally(self, model):
        dt = model.grid.delta_tau
        ks = np.array([0, 16, 40, 64])
        fam = spectral_measure(model, ks * dt)
        op = assemble_T(fam)
        vals, vecs = np.linalg.eigh(op.matrix.matrix)
        mids = 0.5 * (ks[1:] + ks[:-1]) * dt
        for j in (1, 2, 3):
            sel = (vals > 1e-10) & (vals <= mids[j - 1] + 1e-10)
            rebuilt = vecs[:, sel] @ vecs[:, sel].conj().T
            assert np.linalg.norm(rebuilt - fam.projection(j).matrix) <= 1e-6

    def test_single_interval_is_scaled_projection(self, small_grid):
        from timearrow import build_model

        m = build_model(small_grid)
        dt = small_grid.delta_tau
        nh = small_grid.n_half()
        fam = spectral_measure(m, np.array([0.0, nh * dt]))
        op = assemble_T(fam)
        # the single increment is the identity, so T = midpoint * I
        assert np.linalg.norm(op.matrix.matrix
                              - 0.5 * nh * dt * np.eye(nh)) <= 1e-10

    def test_transported_witness_mean_time(self, model):
        # spectral-support oracle: the witness profile weights time by
        # exp(-2 tau) on [0, 1], whose mean is (1/4 - 3/(4 e^2)) / norm
        with pytest.warns(OffLatticeWarning):
            w = kernel_witness(model.grid, -1j, 1.0)
        psi = model.isometry.adjoint().apply(w)
        dt = model.grid.delta_tau
        fam = spectral_measure(model, np.arange(0, 65) * dt)
        op = assemble_T(fam)
        mean = inner(psi, op.matrix.apply(psi)).real / norm(psi) ** 2
        analytic = (0.25 - 0.75 * np.exp(-2)) / ((1 - np.exp(-2)) / 2)
        assert mean == pytest.approx(analytic, abs=0.02)
        assert mean == pytest.approx(0.34659, abs=2e-3)
        vals = np.linalg.eigvalsh(op.matrix.matrix)
        assert vals.min() >= -1e-8
        assert vals.max() <= op.truncation_time + 1e-8

    def test_degenerate_family_rejected(self, model):
        dt = model.grid.delta_tau
        fam = spectral_measure(model, np.array([0.0, 16 * dt]))
        with pytest.raises(ValueError):
            type(fam)(isometry=fam.isometry, times=fam.times,
                      row_ends=fam.row_ends[:1])


class TestMatrixElements:
    def test_identity_observable_reproduces_expectation(self, model):
        rng = np.random.default_rng(403)
        psi = random_guarded_state(model.grid, rng)
        ident = identity_op(model.grid, Space.HALF_LINE_POS)
        times = np.array([0, 8, 32]) * model.grid.delta_tau
        elements = irreversible_matrix_element(model, psi, psi, ident, times)
        for t, rev, irr, diff in zip(times, *elements):
            expectation = lyapunov_expectation(psi, t)
            assert rev.real == pytest.approx(expectation, rel=1e-9, abs=1e-12)
            assert diff <= 1e-8 * norm(psi) ** 2

    def test_at_time_zero_both_sides_are_the_dressed_element(self, model):
        rng = np.random.default_rng(404)
        phi = random_guarded_state(model.grid, rng)
        psi = random_guarded_state(model.grid, rng)
        x = _hermitian_op(model.grid, rng)
        (rev,), (irr,), _ = irreversible_matrix_element(model, phi, psi, x, [0.0])
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
        _, _, diffs = irreversible_matrix_element(model, phi, psi, x, times)
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
            irreversible_matrix_element(model, psi, psi, x, [0.0])
        # a Hermitian matrix counts only when its LinOp is declared hermitian
        undeclared = LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                           0.5 * (a + a.conj().T))
        with pytest.raises(ValueError, match="declared hermitian"):
            irreversible_matrix_element(model, psi, psi, undeclared, [0.0])


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
        _, irr, _ = irreversible_matrix_element(m, phi, psi, x, times)
        lam = m.lam.matrix
        for t, got in zip(times, irr):
            p = future_projection(m, t).matrix
            z = z_matrix(m, t)
            a = make_state(m.grid, Space.HALF_LINE_POS, p @ lam @ phi.amplitudes)
            b = make_state(m.grid, Space.HALF_LINE_POS,
                           z.conj().T @ x.matrix @ z @ p @ lam @ psi.amplitudes)
            assert abs(got - inner(a, b)) <= 1e-12 * scale

    def test_time_grid_validation(self, model, rng):
        psi = _rand_half(model.grid, rng)
        x = identity_op(model.grid, Space.HALF_LINE_POS)
        with pytest.raises(ValueError):
            irreversible_matrix_element(model, psi, psi, x, [])
        with pytest.raises(ValueError):
            irreversible_matrix_element(model, psi, psi, x, [-model.grid.delta_tau])


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
        f = make_state(model.grid, Space.FULL_LINE, np.ones(n))
        with pytest.raises(ValueError):
            correspondence_check(model, f, 0.0)


class TestSnappedTime:
    """With ``snap=True`` both pictures use the one rounded lattice time."""

    @pytest.fixture(scope="class")
    def calls(self, model):
        rng = np.random.default_rng(409)
        psi = random_guarded_state(model.grid, rng)
        x = _hermitian_op(model.grid, rng)
        dt = model.grid.delta_tau
        return {
            "correspondence_check": lambda t, snap: correspondence_check(
                model, psi, t, snap=snap),
            "intertwining_residual": lambda t, snap: intertwining_residual(
                model, t, [psi], snap=snap),
            # the off-lattice time sits between two lattice times of a grid
            "irreversible_matrix_element": lambda t, snap: tuple(
                v[1] for v in irreversible_matrix_element(
                    model, psi, psi, x, [0.0, t, 12 * dt], snap=snap)),
        }

    NAMES = ["correspondence_check", "intertwining_residual",
             "irreversible_matrix_element"]

    @pytest.mark.parametrize("name", NAMES)
    def test_off_lattice_time_snaps_once(self, model, calls, name):
        dt = model.grid.delta_tau
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            snapped = calls[name](10.3 * dt, True)
        assert [w.category for w in caught] == [OffLatticeWarning]
        assert snapped == calls[name](10 * dt, False)

    @pytest.mark.parametrize("name", NAMES)
    def test_off_lattice_time_rejected_without_snap(self, model, calls, name):
        with pytest.raises(OffLatticeTimeError):
            calls[name](10.3 * model.grid.delta_tau, False)
