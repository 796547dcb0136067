"""Selftest checks against the dense and per-state routes they replaced.

Criterion 6 reads the projection family's Gram matrix; its former dense body
(every projection, nesting product and increment spectrum as an N x N
matrix) is kept here as the oracle.  Criteria 5 and 12 act on blocks; their
per-state loops through the single-vector functions are kept as oracles too.
A perturbed R, moved off unitarity as in ``tests/test_ordering.py``, puts
the residuals well above rounding, so the comparisons have digits to check.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from timearrow import (
    LinOp,
    ProjectionFamily,
    Space,
    apply_omega,
    build_model,
    compact_profile_state,
    future_projection,
    lyapunov_expectation,
    make_grid,
    norm,
    projection_rank,
    spectral_measure,
    toeplitz_adjoint,
    toeplitz_step,
    z_adjoint,
    z_evolve,
)
from timearrow import lambda_transform, ordering, selftest
from timearrow.selftest import (
    check_decay_surrogates,
    check_projection_algebra,
    check_projection_family,
    check_semigroup_laws,
)


def _perturbed(model, eps):
    """``model`` with R moved off unitarity by ``eps`` (seeded)."""
    rng = np.random.default_rng(31)
    r = model.isometry.matrix
    r = r + eps * (rng.normal(size=r.shape) + 1j * rng.normal(size=r.shape))
    iso = LinOp(model.grid, Space.HALF_LINE_POS, Space.HARDY_PLUS, r)
    return dataclasses.replace(model, isometry=iso)


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


def _assert_same_check(got, want, rel=1e-6, abs_floor=1e-14):
    (passed, details), (want_passed, want_details) = got, want
    assert passed == want_passed
    assert details.keys() == want_details.keys()
    for key, value in want_details.items():
        assert details[key] == pytest.approx(value, rel=rel, abs=abs_floor), key


@pytest.fixture(scope="module")
def perturbed_small(small_grid):
    # 3e-6 off unitarity: |G - I| = 1.9e-4, residuals near 1e-4, every rank
    # decided by the cluster test rather than the Weyl certificate
    return _perturbed(build_model(small_grid), 3e-6)


class TestProjectionFamilyCheck:
    def test_matches_dense_route_on_shared_model(self, model):
        got = check_projection_family(model)
        assert got[0]
        _assert_same_check(got, _dense_projection_family(model))

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
    return _perturbed(build_model(make_grid(512, 50.0, 1)), 1e-7)


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
        assert details["expectation_ratio"] == lyap
        assert details["toeplitz_norm_ratio"] == pytest.approx(toep, rel=1e-12)
        assert details["z_norm_ratio"] == pytest.approx(zdec, rel=1e-6, abs=1e-14)
