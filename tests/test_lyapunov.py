"""Forward quasi-affine map, the Lyapunov operator, and expectation curves."""

import numpy as np
import pytest

from timearrow import (
    OffLatticeWarning,
    Space,
    StateVector,
    TrajectoryReport,
    apply_omega,
    build_m_f,
    build_omega,
    compact_profile_state,
    hardy_embed,
    hardy_part,
    hardy_project,
    kernel_witness,
    lattice_index,
    lyapunov_curve,
    make_grid,
    norm,
    random_guarded_state,
    toeplitz_step,
    embed,
    unitary_evolve,
)
from timearrow import lyapunov
from timearrow.lyapunov import _omega_block
from oracles import (
    adjoint, apply_omega_adjoint, exact_dft_rows, f_m_membership, gram_m_f,
    inner, lyapunov_expectation, restrict, rounding_gamma, two_pass_curve, zero_state,
)


def _rand_half(grid, rng):
    n = grid.dim(Space.HALF_LINE_POS)
    return StateVector(grid, Space.HALF_LINE_POS,
                       rng.normal(size=n) + 1j * rng.normal(size=n))


def _fft_omega_block(grid):
    # oracle: the sigma->tau transform applied to the identity on the
    # positive-energy bins, keeping the positive-time rows
    from timearrow.hardy import _hardy_scale, _sigma_to_tau

    n, nh = grid.n_sigma, grid.n_half()
    cols = np.zeros((n, nh), dtype=np.complex128)
    cols[nh:] = np.eye(nh)
    return _hardy_scale(grid) * _sigma_to_tau(grid, cols)[nh:]


class TestForwardMap:
    @pytest.mark.parametrize("n_dense, sigma_max", [(4, 20.0), (64, 20.0),
                                                    (1024, 100.0)])
    def test_closed_form_matches_fft_oracle(self, n_dense, sigma_max):
        grid = make_grid(2 * n_dense, sigma_max, 1)
        got = build_omega(grid).matrix
        assert np.abs(got - _fft_omega_block(grid)).max() <= 1e-13
        j = np.arange(n_dense) + 0.5
        closed = np.exp(-2j * np.pi * np.outer(j, j) / grid.n_sigma)
        assert np.abs(got - closed / np.sqrt(grid.n_sigma)).max() <= 1e-12

    def test_fibres_repeat_the_scalar_block(self):
        grid = make_grid(64, 20.0, 3)
        expected = np.kron(_fft_omega_block(grid), np.eye(3))
        assert np.abs(build_omega(grid).matrix - expected).max() <= 1e-13

    def test_matrix_free_route_matches_dense(self, small_grid, rng):
        om = build_omega(small_grid)
        psi = _rand_half(small_grid, rng)
        assert norm(apply_omega(psi) - om.apply(psi)) <= 1e-13 * norm(psi)
        h = StateVector(small_grid, Space.HARDY_PLUS,
                        rng.normal(size=small_grid.n_half()))
        assert norm(apply_omega_adjoint(h) - adjoint(om).apply(h)) <= 1e-13 * norm(h)

    @pytest.mark.parametrize("k_dim", [1, 2])
    def test_block_columns_match_the_embed_route(self, rng, k_dim):
        # the block against the exact kernel (integer-reduced phases) and
        # against hardy_part(embed(psi)), the full-line route it prunes
        grid = make_grid(64, 20.0, k_dim)
        om = build_omega(grid)
        states = [_rand_half(grid, rng) for _ in range(3)]
        block = _omega_block(grid, np.stack([s.amplitudes for s in states], axis=1))
        for j, psi in enumerate(states):
            assert np.array_equal(apply_omega(psi).amplitudes, block[:, j])
            exact = om.apply(psi).amplitudes
            assert np.abs(block[:, j] - exact).max() <= 1e-14 * norm(psi)
            oracle = hardy_part(embed(psi)).amplitudes
            assert np.abs(block[:, j] - oracle).max() <= 1e-14 * norm(psi)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("n_sigma, k_dim", [(2**16, 1), (4096, 8)])
    def test_block_rows_match_the_exact_kernel(self, n_sigma, k_dim, adjoint):
        # selected rows of the image (of omega* if adjoint: the conjugate of
        # the symmetric kernel) against phases reduced exactly in integers
        # and summed in long double: only the block's own rounding is left
        # (the zero-padded full-line route was off by 1e-11 at 2^16)
        grid = make_grid(n_sigma, 100.0, k_dim)
        nh = grid.n_half()
        rng = np.random.default_rng(n_sigma + k_dim)
        a = rng.normal(size=(nh * k_dim, 2)) + 1j * rng.normal(size=(nh * k_dim, 2))
        rows = np.unique(np.r_[0:4, nh - 4:nh, rng.integers(0, nh, 40)])
        got = _omega_block(grid, a, adjoint).reshape(nh, -1)[rows]
        odd = 2 * np.arange(nh) + 1
        if adjoint:
            want = np.conj(exact_dft_rows(n_sigma, odd[rows], odd,
                                          np.conj(a.reshape(nh, -1))))
        else:
            want = exact_dft_rows(n_sigma, odd[rows], odd, a.reshape(nh, -1))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("n_sigma, k_dim", [(8, 1), (64, 2), (1024, 3)])
    def test_adjoint_block_pairs_with_the_block(self, n_sigma, k_dim):
        # <omega a, h> = <a, omega* h> column by column, and omega* equals
        # its embed route restrict(hardy_embed(h)) on every column
        grid = make_grid(n_sigma, 20.0, k_dim)
        rng = np.random.default_rng(n_sigma)
        size = (grid.n_half() * k_dim, 3)
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        h = rng.normal(size=size) + 1j * rng.normal(size=size)
        forward, back = _omega_block(grid, a), _omega_block(grid, h, adjoint=True)
        for j in range(3):
            scale = np.linalg.norm(a[:, j]) * np.linalg.norm(h[:, j])
            pairing = np.vdot(forward[:, j], h[:, j]) - np.vdot(a[:, j], back[:, j])
            assert abs(pairing) <= 1e-14 * scale
            oracle = apply_omega_adjoint(StateVector(grid, Space.HARDY_PLUS, h[:, j]))
            gap = np.abs(back[:, j] - oracle.amplitudes).max()
            assert gap <= 1e-14 * np.linalg.norm(h[:, j])

    def test_contractive_both_ways(self, small_grid, rng):
        psi = _rand_half(small_grid, rng)
        assert norm(apply_omega(psi)) <= norm(psi) * (1 + 1e-13)
        h = StateVector(small_grid, Space.HARDY_PLUS,
                        rng.normal(size=small_grid.n_half()) + 0j)
        assert norm(apply_omega_adjoint(h)) <= norm(h) * (1 + 1e-13)

    def test_adjoint_pairing(self, small_grid, rng):
        psi = _rand_half(small_grid, rng)
        h = StateVector(small_grid, Space.HARDY_PLUS,
                        rng.normal(size=small_grid.n_half()) + 1j * rng.normal(size=small_grid.n_half()))
        assert inner(h, apply_omega(psi)) == pytest.approx(
            inner(apply_omega_adjoint(h), psi), abs=1e-12
        )

    def test_singular_values(self, small_grid):
        s = np.linalg.svd(build_omega(small_grid).matrix, compute_uv=False)
        assert s.max() <= 1 + 1e-10
        assert s.min() > 0.0


def _gram_rounding_bound(n_dense):
    """Entrywise bound on ``|gram_m_f - M|`` at ``n = 2 n_dense``, derived, not
    fitted (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.1 and 3.6).  Each entry of omega is a table root ``exp(-i theta) /
    sqrt(n)``, ``theta < 2 pi`` rounded three times: relative error at most
    ``2 pi gamma_3 + 4 u`` (angle, exp, root, divide).  Entry ``(a, b)`` of the
    product is a complex dot product of ``n_dense`` terms, so at most
    ``sqrt(2) gamma_(N+2) sum_j |omega_ja| |omega_jb|`` off, the sum being
    ``n_dense / n = 1/2``; the inputs add twice their relative error times
    that sum, and hermitizing one rounding of an entry below ``1/2``.  The
    closed form's ``1 / (n sin(pi d / n))`` carries ``gamma_2 + 2 u`` on a
    value below ``1/2``."""
    u = rounding_gamma(1)
    entry = 2 * np.pi * rounding_gamma(3) + 4 * u
    product = 0.5 * (np.sqrt(2) * rounding_gamma(n_dense + 2) + 2 * entry)
    return product + 0.5 * u + 0.5 * (rounding_gamma(2) + 2 * u)


class TestLyapunovOperator:
    @pytest.mark.parametrize("n_dense, k_dim", [
        (64, 1), (512, 1), (1024, 1), (2048, 1), (64, 4), (512, 4)])
    def test_closed_form_matches_the_gram_oracle(self, n_dense, k_dim):
        # M = I/2 + i H against omega^H omega, per bin at every k_dim; a
        # flipped H or a missing I/2 lies far outside the rounding bound
        grid = make_grid(2 * n_dense, 100.0, k_dim)
        m, gram = build_m_f(grid), gram_m_f(grid)
        assert m.hermitian and m._entries.shape == (n_dense, n_dense)
        bound = _gram_rounding_bound(n_dense)
        assert np.abs(m._entries - gram._entries).max() <= bound
        if n_dense == 64:
            assert np.abs(m.matrix - gram.matrix).max() <= bound
        for mutant in (m._entries.conj(), m._entries - 0.5 * np.eye(n_dense)):
            assert np.abs(mutant - gram._entries).max() > bound

    def test_closed_form_forms_no_omega(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("build_m_f reached the forward map")

        monkeypatch.setattr(lyapunov, "build_omega", refuse)
        monkeypatch.setattr(lyapunov, "_dft_lookup", refuse)
        assert build_m_f(make_grid(128, 20.0, 1)).hermitian

    @pytest.mark.parametrize("n_dense", [64, 512, 2048])
    def test_complement_law_is_exact(self, n_dense):
        # S M S = I - M bit for bit, S = diag((-1)^j): H couples only bins of
        # opposite parity, and 1 - 1/2 is 1/2
        m = build_m_f(make_grid(2 * n_dense, 100.0, 1))._entries
        s = (-1.0) ** np.arange(n_dense)
        assert np.array_equal(s[:, None] * m * s, np.eye(n_dense) - m)
        assert np.array_equal(m, m.conj().T)

    def test_normal_product_identity(self, small_grid):
        om = build_omega(small_grid)
        m = build_m_f(small_grid)
        assert np.linalg.norm(m.matrix - om.matrix.conj().T @ om.matrix) <= 1e-12
        assert m.hermitian

    def test_spectrum_inside_unit_interval(self, small_grid):
        vals = np.linalg.eigvalsh(build_m_f(small_grid).matrix)
        assert vals.min() >= -1e-12
        assert vals.max() <= 1 + 1e-10

    def test_quadratic_form_is_projected_energy(self, small_grid, rng):
        # (psi, M psi) equals the squared norm of the Hardy component
        m = build_m_f(small_grid)
        psi = _rand_half(small_grid, rng)
        lhs = inner(psi, m.apply(psi)).real
        rhs = norm(hardy_project(embed(psi), "plus")) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestExpectationCurve:
    def test_matches_dense_route(self, rng):
        # packet construction needs sigma_max > 40 for its guard clearance,
        # and packets of width >= 0.5 need bins a few times narrower
        g = make_grid(256, 50.0, 1)
        m = build_m_f(g)
        psi = random_guarded_state(g, rng)
        for k in (0, 1, 4, 9):
            t = k * g.delta_tau
            dense_val = inner(unitary_evolve(psi, t),
                              m.apply(unitary_evolve(psi, t))).real
            assert lyapunov_expectation(psi, t) == pytest.approx(dense_val, abs=1e-10)

    def test_cumulative_integral_oracle(self, dense_grid, rng):
        # the curve is the tail power of the forward image's time profile
        psi = random_guarded_state(dense_grid, rng)
        h = apply_omega(psi)
        power = np.abs(h.fibered()) ** 2 * dense_grid.delta_sigma
        tail = np.cumsum(power.sum(axis=1)[::-1])[::-1]
        ks = np.arange(0, dense_grid.n_half(), 37)
        curve = lyapunov_curve(psi, ks * dense_grid.delta_tau)
        for k, e in zip(ks, curve.expectations):
            assert e == pytest.approx(tail[k], rel=1e-10, abs=1e-15)

    def test_curve_is_four_quarter_length_ffts(self, dense_grid, rng, monkeypatch):
        # the forward image is the only transform, four FFTs of a quarter of
        # the grid: the leakage is read off it
        psi = random_guarded_state(dense_grid, rng)
        calls = {"fft": [], "ifft": []}
        for name in calls:
            def counted(a, *args, _name=name, _real=getattr(np.fft, name), **kwargs):
                calls[_name].append(np.shape(a)[kwargs.get("axis", -1)])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        lyapunov_curve(psi, np.arange(0, 64, 8) * dense_grid.delta_tau)
        assert calls == {"fft": [dense_grid.n_sigma // 4] * 4, "ifft": []}

    def test_monotone_for_guarded_states(self, dense_grid, rng):
        psi = random_guarded_state(dense_grid, rng)
        ks = np.arange(0, 200, 7)
        rep = lyapunov_curve(psi, ks * dense_grid.delta_tau)
        assert rep.max_monotonicity_violation <= 1e-12
        assert rep.guard_band_leakage <= 1e-8
        assert np.all(rep.expectations >= 0)
        assert np.all(rep.expectations <= norm(psi) ** 2 * (1 + 1e-12))
        assert np.allclose(rep.norms, norm(psi), rtol=1e-12)

    def test_compact_profile_exhausts(self, dense_grid, rng):
        # once the shifted window clears the support, nothing remains
        psi = compact_profile_state(dense_grid, rng)
        t_end = (dense_grid.n_half() - 1) * dense_grid.delta_tau
        assert lyapunov_expectation(psi, t_end) <= 1e-6 * lyapunov_expectation(psi, 0.0)

    def test_witness_restriction_decays_fast(self, dense_grid):
        # pole centred on the positive half-line keeps the restriction loss
        # small; its curve collapses three decades within t0
        with pytest.warns(OffLatticeWarning):
            w = kernel_witness(dense_grid, 50.0 - 1j, 1.0)
        psi = restrict(hardy_embed(w))
        e0 = lyapunov_expectation(psi, 0.0)
        with pytest.warns(OffLatticeWarning):
            k = lattice_index(dense_grid, 2.0, snap=True)
        e2 = lyapunov_expectation(psi, k * dense_grid.delta_tau)
        assert e2 <= 1e-3 * e0
        assert e2 / e0 == pytest.approx(1.32e-5, rel=0.05)

    def test_off_lattice_rejected(self, small_grid, rng):
        psi = _rand_half(small_grid, rng)
        with pytest.raises(Exception):
            lyapunov_expectation(psi, 0.5 * small_grid.delta_tau)

    def test_report_validates_lengths(self, small_grid):
        with pytest.raises(ValueError):
            TrajectoryReport(
                times=np.zeros(3),
                expectations=np.zeros(2),
                norms=np.zeros(3),
                guard_band_leakage=0.0,
                max_monotonicity_violation=0.0,
            )


class TestOrderingSets:
    def test_unit_level_holds_everything(self, small_grid, rng):
        psi = _rand_half(small_grid, rng)
        assert f_m_membership(psi, 1.0)

    def test_zero_level_excludes_everything(self, small_grid, rng):
        # M has trivial kernel, so normalized expectations are positive
        psi = _rand_half(small_grid, rng)
        assert not f_m_membership(psi, 0.0)

    def test_zero_state_rejected(self, small_grid):
        with pytest.raises(ValueError):
            f_m_membership(zero_state(small_grid, Space.HALF_LINE_POS), 0.5)

    def test_levels_nest(self, small_grid, rng):
        psi = _rand_half(small_grid, rng)
        level = inner(psi, build_m_f(small_grid).apply(psi)).real / norm(psi) ** 2
        assert f_m_membership(psi, level + 1e-12)
        assert not f_m_membership(psi, level - 1e-6)

    def test_forward_flow_preserves_membership(self, dense_grid, rng):
        psi = random_guarded_state(dense_grid, rng)
        level = lyapunov_expectation(psi, 0.0) / norm(psi) ** 2
        assert f_m_membership(psi, level + 1e-12)
        for k in (1, 16, 128):
            moved = unitary_evolve(psi, k * dense_grid.delta_tau)
            assert f_m_membership(moved, level + 1e-12)


class TestHeisenbergIdentity:
    def test_matrix_level(self, small_grid):
        # U(-t) M U(t) equals the compressed square plus a positive defect
        # of rank <= k: the k deep-negative time bins the backward window
        # wraps around the seam
        om = build_omega(small_grid).matrix
        m = build_m_f(small_grid).matrix
        nh = small_grid.n_half()
        for k in (1, 5, 16):
            phase = np.exp(-1j * small_grid.sigma_pos() * k * small_grid.delta_tau)
            u = np.diag(phase)
            shift = np.eye(nh, k=k, dtype=np.complex128)  # truncated left shift
            lhs = u.conj().T @ m @ u
            rhs = om.conj().T @ shift.conj().T @ shift @ om
            vals = np.linalg.eigvalsh(lhs - rhs)
            assert vals.min() >= -1e-12
            assert np.sum(vals > 1e-10) <= k

    def test_guarded_states_see_no_defect(self, rng):
        # the wrapped bins carry no power for guard-banded states, so the
        # two routes coincide there
        g = make_grid(256, 50.0, 1)
        m = build_m_f(g)
        psi = random_guarded_state(g, rng)
        h = apply_omega(psi)
        for k in (1, 9, 40):
            t = k * g.delta_tau
            evolved = unitary_evolve(psi, t)
            lhs = inner(evolved, m.apply(evolved)).real
            rhs = norm(toeplitz_step(h, t)) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDensitySurrogate:
    def test_range_fills_as_cutoff_refines(self, dense_grid):
        # finite rendering of the dense-range property: the energy mass of a
        # smooth half-line target below singular cutoff s -> 0 as s -> 0
        sp = dense_grid.sigma_pos()
        target = np.exp(-((sp - 3.0) ** 2) / 2.0).astype(np.complex128)
        om = build_omega(dense_grid).matrix
        _, s, vh = np.linalg.svd(om)
        v = vh.conj().T
        resids = []
        for cutoff in (1e-1, 1e-3, 1e-5, 1e-8):
            vc = v[:, s > cutoff]
            r = target - vc @ (vc.conj().T @ target)
            resids.append(np.linalg.norm(r) / np.linalg.norm(target))
        assert all(b < a for a, b in zip(resids, resids[1:]))
        assert resids[-1] < 0.25 * resids[0]


@pytest.mark.parametrize("n_sigma, k_dim, kind", [
    (1024, 1, "guarded"), (1024, 4, "compact"), (65536, 1, "guarded"),
    (4096, 8, "guarded"), (256, 1, "witness"),
])
def test_curve_squares_the_image_once(n_sigma, k_dim, kind):
    # the leakage and the tail powers from one squared image, bit for bit
    # those of squaring it once for each; the restricted witness carries
    # leakage well above rounding
    grid = make_grid(n_sigma, 100.0 if n_sigma > 256 else 20.0, k_dim)
    rng = np.random.default_rng(n_sigma + k_dim)
    if kind == "witness":
        psi = restrict(hardy_embed(kernel_witness(grid, -1j, 8 * grid.delta_tau)))
    else:
        make = random_guarded_state if kind == "guarded" else compact_profile_state
        psi = make(grid, rng)
    ks = np.round(np.linspace(0, grid.n_half() + 3, 129)).astype(int)
    report = lyapunov_curve(psi, ks * grid.delta_tau)
    leakage, expectations = two_pass_curve(psi, ks)
    assert report.guard_band_leakage == leakage
    assert np.array_equal(report.expectations, expectations)
    if kind == "witness":
        assert leakage > 1e-6
