"""Selftest checks against the dense and per-state routes they replaced.

Criteria 3 and 5 read the unitarity of ``R`` as the norm of the real defect
``D* R R^H D - I``; the complex ``R^H R``, ``R R^H`` and ``Z(0)`` they formed
are oracles (``oracles.complex_isometry_defects``).  Criterion 5 reads its
composition laws as blocks of that defect; the dense ``Z(a) Z(b) - Z(a + b)``
it formed is an oracle (``oracles.composition_law``).  Criterion 6 reads the
projection family's residuals; its former dense body
(every projection, nesting product and increment spectrum as an N x N
matrix) and its nesting over all pairs of times are kept here as oracles.
Criteria 5 and 12 act on blocks; their per-state loops through the
single-vector functions (and ``oracles.lyapunov_expectation``) are oracles too.
A model whose eigenvector matrix is moved off orthogonality
(``oracles.perturbed_model``, as in ``tests/test_ordering.py``) puts the
residuals well above rounding, so the comparisons have digits to check.
"""

import collections
import itertools

import numpy as np
import pytest

from timearrow import (
    ProjectionFamily,
    Space,
    apply_omega,
    build_model,
    compact_profile_state,
    future_projection,
    make_grid,
    norm,
    projection_rank,
    spectral_measure,
    toeplitz_step,
    z_adjoint,
    z_evolve,
)
from timearrow import lambda_transform, ordering, selftest
from timearrow.lambda_transform import ProlateOp, _isometry_defect
from timearrow.selftest import (
    check_decay_surrogates,
    check_polar_factorization,
    check_projection_algebra,
    check_projection_family,
    check_semigroup_laws,
)
from oracles import (
    complex_isometry_defects, composition_law, lyapunov_expectation, perturbed_model,
    toeplitz_adjoint,
)


def _family_ks(model):
    nh = model.grid.n_half()
    return np.arange(0, nh + 1, max(nh // 8, 1))


def _dense_projection_family(model):
    """Criterion 6 by dense N x N products, with the same pass rule.

    The complement is taken against the future projection as the row block
    ``R[e:]^H R[e:]`` (:func:`future_projection`), so ``P + P_future = R^H
    R`` at every time.  The dense ``Z(t)^H Z(t) = R[e:]^H G[:N-e, :N-e]
    R[e:]`` that the check once used instead counts R's departure from
    unitarity twice at ``t = 0``, where it is ``(R^H R)^2``.
    """
    family = spectral_measure(model, _family_ks(model) * model.grid.delta_tau)
    projections = [family.projection(i) for i in range(family.times.size)]
    eye = np.eye(model.grid.dim(Space.HALF_LINE_POS))
    idem = comp = nest = 0.0
    for p, t in zip(projections, family.times):
        m = p.matrix
        idem = max(idem, np.linalg.norm(m @ m - m))
        comp = max(comp, np.linalg.norm(m + future_projection(model, t).matrix - eye))
    for pi, pj in itertools.combinations([p.matrix for p in projections], 2):
        nest = max(nest, np.linalg.norm(pi @ pj - pi))
    ranks = [projection_rank(p) for p in projections]
    spectra = np.concatenate([
        np.linalg.eigvalsh(family.increment(i).matrix)
        for i in range(family.times.size - 1)
    ])
    inc_eig_lo, inc_eig_hi = spectra.min(), spectra.max()
    details = {
        "idempotency": idem,
        "complementarity": comp,
        "nesting": nest,
        "rank_first": float(ranks[0]),
        "rank_monotone": float(all(np.diff(ranks) >= 0)),
        "increment_eig_min": inc_eig_lo,
        "increment_eig_max": inc_eig_hi,
    }
    passed = (
        idem <= 1e-8
        and comp <= 1e-8
        and nest <= 1e-6
        and ranks[0] == 0
        and all(np.diff(ranks) >= 0)
        and inc_eig_lo >= -1e-8
        and inc_eig_hi <= 1.0 + 1e-8
    )
    return passed, details


def _all_pairs_nesting(family):
    """Worst ``|P_i P_j - P_i|`` over every pair ``i < j`` of the family, from
    Gram blocks: ``|P_i P_j - P_i|^2 = Re<G_i F, F G_j>`` with ``F = (G -
    I)[:e_i, :e_j]`` and ``G_e`` the leading ``e x e`` block of ``G``, the
    complex Gram matrix of the dense ``R``."""
    r = family.isometry._entries
    g = r @ r.conj().T
    nest_sq = 0.0
    for a, b in itertools.combinations(family.row_ends, 2):
        f = g[:a, :b] - np.eye(a, b)
        nest_sq = max(nest_sq, np.vdot(g[:a, :a] @ f, f @ g[:b, :b]).real)
    return float(np.sqrt(nest_sq))


def _assert_same_check(got, want, rel=1e-6, abs_floor=1e-14):
    (passed, details), (want_passed, want_details) = got, want
    assert passed == want_passed
    assert details.keys() == want_details.keys()
    for key, value in want_details.items():
        assert details[key] == pytest.approx(value, rel=rel, abs=abs_floor), key


@pytest.fixture(scope="module")
def perturbed_small(small_grid):
    # v 3e-6 off orthogonality: |G - I| = 1.28e-4, residuals near 1e-4,
    # every rank decided by the cluster test rather than the Weyl certificate,
    # which |G - I| above the cluster gap rules out
    model = perturbed_model(build_model(small_grid), 3e-6)
    assert np.linalg.norm(_isometry_defect(model.isometry)) > ordering._CLUSTER_GAP
    return model


class TestProjectionFamilyCheck:
    def test_matches_dense_route_on_shared_model(self, model):
        got = check_projection_family(model)
        assert got[0]
        _assert_same_check(got, _dense_projection_family(model))

    def test_nesting_is_the_worst_of_all_pairs(self, model):
        # the criterion reads the consecutive pairs that residuals() gives;
        # on the shared model the worst of all 36 pairs is the same number
        # (bit for bit on x86-64 with OpenBLAS, and at rounding level)
        family = spectral_measure(model, _family_ks(model) * model.grid.delta_tau)
        _, details = check_projection_family(model)
        assert details["nesting"] == pytest.approx(_all_pairs_nesting(family),
                                                   rel=1e-12)

    def test_matches_dense_route_off_unitarity(self, perturbed_small):
        got = check_projection_family(perturbed_small)
        _assert_same_check(got, _dense_projection_family(perturbed_small))
        details = got[1]
        assert details["idempotency"] > 1e-6 and details["nesting"] > 1e-6

    def test_forms_no_dense_projection_or_spectrum(self, model, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (selftest, ordering, lambda_transform):
            for name in ("z_matrix", "projection_rank", "_row_weighted"):
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(module, name, counted(name, fn))
        for name in ("projection", "increment"):
            monkeypatch.setattr(ProjectionFamily, name,
                                counted(name, getattr(ProjectionFamily, name)))
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        passed, _ = check_projection_family(model)
        assert passed
        assert not calls
        n = model.grid.dim(Space.HALF_LINE_POS)
        assert len(shapes) == _family_ks(model).size - 1
        assert all(s[0] < n for s in shapes)


def test_projection_algebra_halfline_residuals_are_exact(small_grid):
    passed, details = check_projection_algebra(build_model(small_grid))
    assert passed
    for key in ("idempotency", "hermiticity", "complementarity"):
        assert details[f"halfline_{key}"] == 0.0


def _per_state_coisometries(model):
    """Criterion 5's co-isometry residuals, one state and one time at a time."""
    grid = model.grid
    psi_set = selftest._guarded_set(grid, seed=402, count=selftest._SWEEP_STATES)
    zz = tt = 0.0
    for k in (1, 5, 16, 44, selftest._SWEEP_MAX_SHIFT):
        t = k * grid.delta_tau
        for psi in psi_set:
            chi = model.lam.apply(psi)
            back = z_evolve(model, z_adjoint(model, chi, t), t)
            zz = max(zz, norm(back - chi) / norm(chi))
            h = apply_omega(psi)
            back = toeplitz_step(toeplitz_adjoint(h, t), t)
            tt = max(tt, norm(back - h) / norm(h))
    return zz, tt


def _per_state_decay(model):
    """Criterion 12's ratios, one state and one time at a time."""
    grid = model.grid
    nh = grid.n_half()
    rng = np.random.default_rng(412)
    lyap = toep = zdec = 0.0
    for _ in range(10):
        psi = compact_profile_state(grid, rng)
        h = apply_omega(psi)
        chi = model.lam.apply(psi)
        for k in (3 * nh // 4, nh):
            t = k * grid.delta_tau
            base = lyapunov_expectation(psi, 0.0)
            lyap = max(lyap, lyapunov_expectation(psi, t) / base)
            toep = max(toep, norm(toeplitz_step(h, t)) / norm(h))
            zdec = max(zdec, norm(z_evolve(model, chi, t)) / norm(chi))
    return lyap, toep, zdec


@pytest.fixture(scope="module")
def perturbed_mid():
    # 256 half-line bins: the sweep's 64-bin shifts stay inside the window
    return perturbed_model(build_model(make_grid(512, 50.0, 1)), 1e-7)


@pytest.fixture(scope="module")
def short_model():
    # 32 half-line bins: the sweep's 44- and 64-bin shifts pass the window's
    # end, where the shifted blocks are all zeros, and compact profiles still
    # fill much of the window
    return build_model(make_grid(64, 50.0, 1))


@pytest.fixture(params=["model", "perturbed_mid", "short_model"])
def block_model(request):
    return request.param, request.getfixturevalue(request.param)


class TestBlockForms:
    def test_semigroup_coisometries_match_per_state_route(self, block_model):
        name, m = block_model
        _, details = check_semigroup_laws(m)
        zz, tt = _per_state_coisometries(m)
        if name != "model":
            assert zz > 1e-8  # well above rounding
        assert details["z_coisometry"] == pytest.approx(zz, rel=1e-6, abs=1e-14)
        assert details["toeplitz_coisometry"] == pytest.approx(tt, rel=1e-12)

    def test_decay_ratios_match_per_state_route(self, block_model):
        name, m = block_model
        _, details = check_decay_surrogates(m)
        lyap, toep, zdec = _per_state_decay(m)
        if name != "model":
            assert zdec > 1e-8
        # the curve's reverse cumulative sum against the oracle's slice norm:
        # the same powers summed in another order, so equal to rounding only
        assert details["expectation_ratio"] == pytest.approx(lyap, rel=1e-12)
        assert details["toeplitz_norm_ratio"] == pytest.approx(toep, rel=1e-12)
        assert details["z_norm_ratio"] == pytest.approx(zdec, rel=1e-6, abs=1e-14)


class _Tagged(np.ndarray):
    """A dense operator that logs the operand tags of every product it enters;
    conjugates, transposes and slices keep the tag."""

    products = []

    def __array_finalize__(self, obj):
        self.tag = getattr(obj, "tag", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        tags = [getattr(x, "tag", None) for x in inputs]
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.matmul:
            _Tagged.products.append(tuple(tags))
        elif ufunc is np.conjugate:
            out = out.view(_Tagged)
            out.tag = tags[0]
        return out


class TestIsometryDefect:
    def test_criteria_3_and_5_form_no_gram_of_R(self, model, monkeypatch):
        # criterion 3 multiplies R only into lam (the polar residual), and
        # criterion 5 reads its composition laws off blocks of the real
        # defect: it builds no Z(t), so z_matrix is never called
        matrix = ProlateOp.matrix.fget

        def tagged(op):
            out = matrix(op).view(_Tagged)
            out.tag = "lam" if op.hermitian else "R"
            return out

        calls = collections.Counter()

        def counted(fn):
            def wrapper(*args):
                calls["z_matrix"] += 1
                return fn(*args)
            return wrapper

        for module in (lambda_transform, selftest):
            if hasattr(module, "z_matrix"):
                monkeypatch.setattr(module, "z_matrix", counted(module.z_matrix))
        monkeypatch.setattr(ProlateOp, "matrix", property(tagged))
        monkeypatch.setattr(_Tagged, "products", [])
        passed3, polar = check_polar_factorization(model)
        passed5, laws = check_semigroup_laws(model)
        assert passed3 and passed5
        assert sorted(_Tagged.products) == [("R", "lam"), ("lam", "lam")]
        assert calls["z_matrix"] == 0
        # four report keys, one number: criterion 6's complement residual
        _, family = check_projection_family(model)
        real = np.linalg.norm(_isometry_defect(model.isometry))
        assert (polar["isometry_left"] == polar["isometry_right"] == laws["z_identity"]
                == family["complementarity"] == real)

    @pytest.mark.parametrize("eps", [0.0, 3e-6, 1e-6])
    @pytest.mark.parametrize("k_dim", [1, 4])
    @pytest.mark.parametrize("n_dense", [4, 64, 512])
    def test_complex_routes_match_the_real_defect(self, n_dense, k_dim, eps):
        # |R^H R - I|, |R R^H - I| and |Z(0) - I| on the full space are the
        # real defect's norm times sqrt(k_dim): off unitarity (eps > 0) to a
        # relative 1e-10 (worst seen 3.9e-12); on the built model, where both
        # sides are rounding (4e-16 to 1.2e-13), to a relative 0.1 (worst seen
        # 6.0e-2 at n_dense 4, 2.8e-2 at 64, 1.5e-2 at 512)
        model = build_model(make_grid(2 * n_dense, 100.0, k_dim))
        if eps:
            model = perturbed_model(model, eps)
        real = selftest._defect_norms(model)[0]
        assert real == np.linalg.norm(_isometry_defect(model.isometry)) * np.sqrt(k_dim)
        bound = dict(rel=1e-10, abs=0.0) if eps else dict(rel=0.1, abs=1e-16)
        for value in complex_isometry_defects(model):
            assert value == pytest.approx(real, **bound)
        if eps:  # well above rounding
            assert real > 1e-6

    # Criterion 5's law blocks on a perturbed model, where the laws fail by
    # O(eps); k_dim 4 only up to n_dense 64, to keep the suite fast.
    _LAW_CASES = pytest.mark.parametrize(
        "n_dense, k_dim",
        [(4, 1), (32, 1), (64, 1), (512, 1), (4, 4), (32, 4), (64, 4)])

    @staticmethod
    def _perturbed(n_dense, k_dim, eps):
        return perturbed_model(build_model(make_grid(2 * n_dense, 100.0, k_dim)), eps)

    @pytest.mark.parametrize("eps", [3e-6, 1e-6])
    @_LAW_CASES
    def test_law_blocks_are_blocks_of_the_complex_defect(self, n_dense, k_dim, eps):
        # each law norm is |G[a:, :n-b]| on the full space, G = R R^H - I from
        # the complex dense R, to a relative 1e-10 (worst seen 7.8e-12); the
        # block is empty once b >= n, as at n_dense 32 for the pair (20, 44)
        model = self._perturbed(n_dense, k_dim, eps)
        r = model.isometry.matrix
        g = r @ r.conj().T - np.eye(r.shape[0])
        _, laws = selftest._defect_norms(model)
        assert len(laws) == len(selftest._LAW_PAIRS)
        for (a, b), law in zip(selftest._LAW_PAIRS, laws):
            block = g[a * k_dim:, : max(n_dense - b, 0) * k_dim]
            assert law == pytest.approx(np.linalg.norm(block), rel=1e-10, abs=0.0)
        assert max(laws) > 1e-6  # well above rounding

    @pytest.mark.parametrize("eps", [3e-6, 1e-6])
    @_LAW_CASES
    def test_law_blocks_match_the_dense_laws(self, n_dense, k_dim, eps):
        # Z(a)Z(b) - Z(a+b) = A X B with A = R[:n-a]^H, X = G[a:, :n-b] and
        # B = R[b:]; A^H A = I + G[:n-a, :n-a] and B B^H = I + G[b:, b:], so
        # |A X B| lies within (1 +- |G|_2) |X|: the dense law and its block
        # agree to a relative |G|_2 = |defect|_2 (seen 6.8e-8 to 3.0e-6 against
        # bounds of 4.2e-6 to 1.9e-4, at most 0.24 of the bound)
        model = self._perturbed(n_dense, k_dim, eps)
        spectral = np.linalg.norm(_isometry_defect(model.isometry), 2)
        _, laws = selftest._defect_norms(model)
        for (a, b), law in zip(selftest._LAW_PAIRS, laws):
            dense = np.linalg.norm(composition_law(model, a, b))
            assert dense == pytest.approx(law, rel=spectral, abs=0.0)
