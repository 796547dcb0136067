"""Self-contained acceptance checks for the whole construction.

Twelve checks, split into an exact-algebra tier (machine-precision identities
of the discrete model, dense tier at ``n_dense`` half-line bins) and a
continuum tier (truncation-limited statements with convergence under grid
refinement, at pinned grids).  Each check runs standalone and returns a
:class:`CheckResult` carrying the measured residuals, so failures are
diagnosable from the report alone.  The CLI ``selftest`` command and the
acceptance test suite both drive exactly these functions.

Thresholds are fixed contracts of the model, not configuration: loosening
them would not make the identities any more true.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import (
    OffLatticeWarning,
    kernel_witness,
    toeplitz_adjoint,
    toeplitz_step,
    unitary_evolve,
)
from .hardy import (
    _sigma_to_tau,
    _tau_to_sigma,
    hardy_project,
    hardy_project_oracle,
    rational_hardy,
)
from .lambda_transform import (
    IrreversibleModel,
    build_model,
    intertwining_residual,
    z_adjoint,
    z_evolve,
    z_matrix,
)
from .lyapunov import apply_omega, build_m_f, lyapunov_curve, lyapunov_expectation
from .ordering import correspondence_check, projection_rank, spectral_measure
from .spaces import Space, make_grid, norm
from .states import compact_profile_state, random_guarded_state, smooth_oracle_state

__all__ = ["CheckResult", "run_all", "refinement_series", "CHECKS"]

# Pinned sweep shape for the exact-algebra criteria: lattice shifts up to 64
# bins (transport keeps guard-banded states clear of the window edges there),
# 20 times x 20 states.
_SWEEP_MAX_SHIFT = 64
_SWEEP_TIMES = 20
_SWEEP_STATES = 20


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    criterion: int
    name: str
    tier: str
    passed: bool
    details: dict
    elapsed: float

    def __post_init__(self) -> None:
        # plain built-in types so results serialize to JSON as-is
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "elapsed", float(self.elapsed))
        object.__setattr__(
            self, "details", {k: float(v) for k, v in self.details.items()}
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = ", ".join(
            f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(self.details.items())
        )
        return (
            f"criterion {self.criterion:2d} [{self.tier}] {status} "
            f"{self.name} ({worst}) [{self.elapsed:.2f}s]"
        )


def _sweep_shifts() -> np.ndarray:
    return np.unique(
        np.round(np.linspace(0, _SWEEP_MAX_SHIFT, _SWEEP_TIMES)).astype(int)
    )


def _guarded_set(grid, seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_guarded_state(grid, rng) for _ in range(count)]


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def check_projection_algebra(n_dense: int = 512) -> CheckResult:
    """Criterion 1: Hardy and half-line projections form exact complements."""
    start = time.perf_counter()
    grid = make_grid(2 * n_dense, 100.0, 1)
    n = grid.n_sigma
    eye = np.eye(n, dtype=np.complex128)
    mask = (grid.tau() >= 0.0)[:, None]
    # Matrices of hardy_project(.., "plus"/"minus") applied to basis columns.
    stack = _sigma_to_tau(grid, eye)
    p_plus = _tau_to_sigma(grid, np.where(mask, stack, 0.0))
    p_minus = _tau_to_sigma(grid, np.where(mask, 0.0, stack))
    d_pos = np.diag((grid.sigma() >= 0.0).astype(np.complex128))
    d_neg = eye - d_pos
    details = {
        "hardy_idempotency": max(
            _frob(p_plus @ p_plus - p_plus), _frob(p_minus @ p_minus - p_minus)
        ),
        "hardy_hermiticity": max(
            _frob(p_plus - p_plus.conj().T), _frob(p_minus - p_minus.conj().T)
        ),
        "hardy_complementarity": _frob(p_plus + p_minus - eye),
        "halfline_idempotency": max(
            _frob(d_pos @ d_pos - d_pos), _frob(d_neg @ d_neg - d_neg)
        ),
        "halfline_hermiticity": max(
            _frob(d_pos - d_pos.conj().T), _frob(d_neg - d_neg.conj().T)
        ),
        "halfline_complementarity": _frob(d_pos + d_neg - eye),
    }
    passed = all(v <= 1e-12 for v in details.values())
    return CheckResult(
        1, "projection-algebra", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_lyapunov_operator(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 2: the Lyapunov operator is a Hermitian contraction with
    trivial kernel, equal to the forward map's normal product."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    m = build_m_f(model.grid).matrix
    om = model.omega.matrix
    vals = np.linalg.eigvalsh(m)
    s = model.singular_values
    details = {
        "hermiticity": _frob(m - m.conj().T),
        "eig_min": float(vals.min()),
        "eig_max": float(vals.max()),
        "factorization": _frob(m - om.conj().T @ om),
        "singular_min": float(s.min()),
        "singular_max": float(s.max()),
        "rank_deficiency": float(s.size - np.count_nonzero(s > 0.0)),
    }
    passed = (
        details["hermiticity"] <= 1e-12
        and details["eig_min"] >= -1e-12
        and details["eig_max"] <= 1.0 + 1e-10
        and details["factorization"] <= 1e-12
        and details["singular_min"] > 0.0
        and details["singular_max"] <= 1.0 + 1e-10
        and details["rank_deficiency"] == 0.0
    )
    return CheckResult(
        2, "lyapunov-operator", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_polar_factorization(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 3: square root squares back, the polar factor is unitary,
    and the factorization reassembles the forward map."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    lam = model.lam.matrix
    r = model.isometry.matrix
    om = model.omega.matrix
    eye = np.eye(lam.shape[0], dtype=np.complex128)
    details = {
        "sqrt_residual": _frob(lam @ lam - build_m_f(model.grid).matrix),
        "isometry_left": _frob(r.conj().T @ r - eye),
        "isometry_right": _frob(r @ r.conj().T - eye),
        "polar_residual": _frob(r @ lam - om),
    }
    passed = (
        details["sqrt_residual"] <= 1e-10
        and details["isometry_left"] <= 1e-10
        and details["isometry_right"] <= 1e-10
        and details["polar_residual"] <= 1e-8
    )
    return CheckResult(
        3, "polar-factorization", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_intertwining(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 4: the square root and the forward map both intertwine
    unitary evolution with their semigroups, across a lattice-time sweep."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    grid = model.grid
    psi_set = _guarded_set(grid, seed=401, count=_SWEEP_STATES)
    # The adjoint relation u(-t) lam = lam Z*(t) moves mass backward through
    # the transported representation, so its natural domain is the range of
    # lam: states guard-banded *after* transport.
    transported = [model.lam.apply(psi) for psi in psi_set]
    worst_fwd = worst_adj = worst_omega = 0.0
    for k in _sweep_shifts():
        t = k * grid.delta_tau
        fwd, _ = intertwining_residual(model, t, psi_set)
        _, adj = intertwining_residual(model, t, transported)
        worst_fwd = max(worst_fwd, fwd)
        worst_adj = max(worst_adj, adj)
        for psi in psi_set:
            lhs = apply_omega(unitary_evolve(psi, t))
            rhs = toeplitz_step(apply_omega(psi), t)
            worst_omega = max(worst_omega, norm(lhs - rhs) / norm(psi))
    details = {
        "lambda_forward": worst_fwd,
        "lambda_adjoint": worst_adj,
        "omega_route": worst_omega,
    }
    passed = all(v <= 1e-8 for v in details.values())
    return CheckResult(
        4, "intertwining", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_semigroup_laws(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 5: semigroup identity/composition laws, and the isometric
    adjoint legs, on guard-banded states."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    grid = model.grid
    dt = grid.delta_tau
    dim = grid.dim(Space.HALF_LINE_POS)
    psi_set = _guarded_set(grid, seed=402, count=_SWEEP_STATES)
    h_set = [apply_omega(psi) for psi in psi_set]
    # Z's co-isometry, like the adjoint intertwining, lives on states that
    # are guard-banded in the transported representation: the range of lam.
    transported = [model.lam.apply(psi) for psi in psi_set]
    identity_resid = _frob(z_matrix(model, 0.0) - np.eye(dim))
    law = 0.0
    for ks, kt in [(1, 2), (3, 5), (8, 13), (16, 21), (20, 44), (32, 32)]:
        law = max(
            law,
            _frob(
                z_matrix(model, ks * dt) @ z_matrix(model, kt * dt)
                - z_matrix(model, (ks + kt) * dt)
            ),
        )
    zz = tt = 0.0
    for k in (1, 5, 16, 44, _SWEEP_MAX_SHIFT):
        t = k * dt
        for chi in transported:
            back = z_evolve(model, z_adjoint(model, chi, t), t)
            zz = max(zz, norm(back - chi) / norm(chi))
        for h in h_set:
            back = toeplitz_step(toeplitz_adjoint(h, t), t)
            tt = max(tt, norm(back - h) / norm(h))
    details = {
        "z_identity": identity_resid,
        "z_composition": law,
        "z_coisometry": zz,
        "toeplitz_coisometry": tt,
    }
    passed = all(v <= 1e-8 for v in details.values())
    return CheckResult(
        5, "semigroup-laws", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_projection_family(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 6: the past-projection family is an exact nested resolution
    with the right ranks."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    grid = model.grid
    nh = grid.n_half()
    step = max(nh // 8, 1)
    ks = np.arange(0, nh + 1, step)
    times = ks * grid.delta_tau
    family = spectral_measure(model, times)
    projections = [family.projection(i) for i in range(family.times.size)]
    eye = np.eye(grid.dim(Space.HALF_LINE_POS), dtype=np.complex128)
    idem = comp = nest = 0.0
    for p, t in zip(projections, family.times):
        m = p.matrix
        idem = max(idem, _frob(m @ m - m))
        z = z_matrix(model, float(t))
        q = z.conj().T @ z
        comp = max(comp, _frob(m + q - eye))
    for i in range(len(projections)):
        for j in range(i + 1, len(projections)):
            pi, pj = projections[i].matrix, projections[j].matrix
            nest = max(nest, _frob(pi @ pj - pi))
    ranks = [projection_rank(p) for p in projections]
    inc_eig_lo, inc_eig_hi = 0.0, 0.0
    for i in range(family.times.size - 1):
        vals = np.linalg.eigvalsh(family.increment(i).matrix)
        inc_eig_lo = min(inc_eig_lo, float(vals.min()))
        inc_eig_hi = max(inc_eig_hi, float(vals.max()))
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
    return CheckResult(
        6, "projection-family", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_correspondence(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 7: reversible expectations equal future-projection weights
    in the transported picture, across the sweep."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    grid = model.grid
    psi_set = _guarded_set(grid, seed=403, count=_SWEEP_STATES)
    worst = 0.0
    for k in _sweep_shifts():
        t = k * grid.delta_tau
        for psi in psi_set:
            _, _, rel = correspondence_check(model, psi, t)
            worst = max(worst, rel)
    details = {"relative_difference": worst}
    passed = worst <= 1e-8
    return CheckResult(
        7, "correspondence", "algebraic", passed, details,
        time.perf_counter() - start,
    )


def check_lyapunov_monotonicity() -> CheckResult:
    """Criterion 8: expectation curves never increase and have decayed by a
    quarter window, at production grid size, within the time budget."""
    start = time.perf_counter()
    grid = make_grid(4096, 100.0, 1)
    nh = grid.n_half()
    ks = np.round(np.linspace(0, nh, 65)).astype(int)
    times = ks * grid.delta_tau
    quarter_idx = int(np.argmin(np.abs(ks - nh // 2)))
    rng = np.random.default_rng(408)
    violation = 0.0
    ratio = 0.0
    leakage = 0.0
    for _ in range(50):
        psi = random_guarded_state(grid, rng)
        report = lyapunov_curve(psi, times)
        violation = max(violation, report.max_monotonicity_violation)
        ratio = max(ratio, report.expectations[quarter_idx] / report.expectations[0])
        leakage = max(leakage, report.guard_band_leakage)
    elapsed = time.perf_counter() - start
    # timing is part of the contract here but lives in `elapsed`, not in
    # `details`, so written reports stay byte-identical across reruns
    details = {
        "max_violation": violation,
        "quarter_window_ratio": ratio,
        "guard_band_leakage": leakage,
    }
    passed = violation <= 1e-10 and ratio <= 0.05 and elapsed <= 5.0
    return CheckResult(
        8, "lyapunov-monotonicity", "algebraic", passed, details, elapsed
    )


# Refinement ladder for the continuum tier: L doubles at fixed N/L, so the
# energy resolution is constant while the cutoff grows.
_REFINEMENT = [(1024, 25.0), (2048, 50.0), (4096, 100.0)]


def refinement_series() -> list[tuple[int, float, float, float, float]]:
    """Continuum-tier residuals on each rung of the refinement ladder.

    One row ``(n_sigma, sigma_max, simple_pole, double_pole, witness_ratio)``
    per rung: the relative Hardy defects ``|P_+ f - f| / |f|`` of
    ``rational_hardy`` with a simple and a double pole at ``-i``, and
    ``|T(1) w| / |w|`` for the kernel witness designed to die at ``t = 1``
    (snapped to the lattice without a warning).
    """
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OffLatticeWarning)
        for n, ell in _REFINEMENT:
            grid = make_grid(n, ell, 1)
            defects = []
            for order in (1, 2):
                f = rational_hardy(grid, [(-1j, order)])
                defects.append(norm(hardy_project(f, "plus") - f) / norm(f))
            w = kernel_witness(grid, -1j, 1.0)
            ratio = norm(toeplitz_step(w, 1.0, snap=True)) / norm(w)
            rows.append((n, ell, defects[0], defects[1], ratio))
    return rows


def check_rational_membership() -> CheckResult:
    """Criterion 9: rational functions with lower-half-plane poles stay in
    the positive Hardy subspace up to a truncation error that shrinks with
    the energy cutoff."""
    start = time.perf_counter()
    series = refinement_series()
    simple = [row[2] for row in series]
    double = [row[3] for row in series]
    details = {
        "simple_pole_final": simple[-1],
        "double_pole_final": double[-1],
        "simple_pole_monotone": float(all(np.diff(simple) < 0)),
        "double_pole_monotone": float(all(np.diff(double) < 0)),
    }
    passed = (
        simple[-1] <= 0.05
        and double[-1] <= 0.012
        and all(np.diff(simple) < 0)
        and all(np.diff(double) < 0)
    )
    return CheckResult(
        9, "rational-hardy-membership", "continuum", passed, details,
        time.perf_counter() - start,
    )


def check_kernel_witness() -> CheckResult:
    """Criterion 10: the explicit semigroup-kernel witness dies at its design
    time and carries the analytically known norm and half-time ratio."""
    start = time.perf_counter()
    ratios = [row[4] for row in refinement_series()]
    grid = make_grid(4096, 100.0, 1)
    f = kernel_witness(grid, -1j, 1.0)
    half_ratio = norm(toeplitz_step(f, 0.5, snap=True)) / norm(f)
    norm_sq = norm(f) ** 2
    # time-domain oracles: profile is -i e^{-tau} on [0, 1)
    oracle_norm_sq = (1.0 - np.exp(-2.0)) / 2.0
    oracle_half = np.sqrt(
        (np.exp(-1.0) - np.exp(-2.0)) / (1.0 - np.exp(-2.0))
    )
    details = {
        "decay_ratio_final": ratios[-1],
        "decay_monotone": float(all(np.diff(ratios) < 0)),
        "half_time_ratio": half_ratio,
        "norm_sq": norm_sq,
        "norm_sq_oracle": float(oracle_norm_sq),
    }
    passed = (
        ratios[-1] <= 0.05
        and all(np.diff(ratios) < 0)
        and abs(half_ratio - oracle_half) <= 0.01
        and abs(norm_sq - oracle_norm_sq) <= 0.02 * oracle_norm_sq
    )
    return CheckResult(
        10, "kernel-witness", "continuum", passed, details,
        time.perf_counter() - start,
    )


def check_oracle_agreement() -> CheckResult:
    """Criterion 11: FFT projection and principal-value quadrature agree on
    smooth cut-clearing states."""
    start = time.perf_counter()
    grid = make_grid(1024, 50.0, 1)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(30):
        f = smooth_oracle_state(grid, rng)
        fft_route = hardy_project(f, "plus")
        pv_route = hardy_project_oracle(f)
        worst = max(worst, norm(fft_route - pv_route) / norm(f))
    details = {"worst_relative_difference": worst}
    passed = worst <= 1e-3
    return CheckResult(
        11, "hilbert-oracle-agreement", "continuum", passed, details,
        time.perf_counter() - start,
    )


def check_decay_surrogates(
    n_dense: int = 512, model: IrreversibleModel | None = None
) -> CheckResult:
    """Criterion 12: all three decay statements (expectation curve, Toeplitz
    norm, contraction-semigroup norm) reach 1e-6 of initial by half the
    window on compact-profile states."""
    start = time.perf_counter()
    if model is None:
        model = build_model(make_grid(2 * n_dense, 100.0, 1))
    grid = model.grid
    nh = grid.n_half()
    rng = np.random.default_rng(412)
    # genuine interior decay at 3/8 of the window plus the horizon itself
    ks = [3 * nh // 4, nh]
    lyap = toep = zdec = 0.0
    for _ in range(10):
        psi = compact_profile_state(grid, rng)
        base = lyapunov_expectation(psi, 0.0)
        h = apply_omega(psi)
        transported = model.lam.apply(psi)
        tnorm = norm(transported)
        for k in ks:
            t = k * grid.delta_tau
            lyap = max(lyap, lyapunov_expectation(psi, t) / base)
            toep = max(toep, norm(toeplitz_step(h, t)) / norm(h))
            zdec = max(zdec, norm(z_evolve(model, transported, t)) / tnorm)
    details = {
        "expectation_ratio": lyap,
        "toeplitz_norm_ratio": toep,
        "z_norm_ratio": zdec,
    }
    passed = all(v <= 1e-6 for v in details.values())
    return CheckResult(
        12, "decay-surrogates", "continuum", passed, details,
        time.perf_counter() - start,
    )


CHECKS = (
    (1, check_projection_algebra),
    (2, check_lyapunov_operator),
    (3, check_polar_factorization),
    (4, check_intertwining),
    (5, check_semigroup_laws),
    (6, check_projection_family),
    (7, check_correspondence),
    (8, check_lyapunov_monotonicity),
    (9, check_rational_membership),
    (10, check_kernel_witness),
    (11, check_oracle_agreement),
    (12, check_decay_surrogates),
)


def run_all(n_dense: int = 512, progress=None) -> list[CheckResult]:
    """Run every acceptance check, sharing one dense-tier factorization.

    ``progress``, if given, is called with each :class:`CheckResult` as it
    completes.
    """
    model = build_model(make_grid(2 * n_dense, 100.0, 1))
    shared = {
        check_lyapunov_operator,
        check_polar_factorization,
        check_intertwining,
        check_semigroup_laws,
        check_projection_family,
        check_correspondence,
        check_decay_surrogates,
    }
    results = []
    for _criterion, fn in CHECKS:
        if fn in shared:
            res = fn(n_dense=n_dense, model=model)
        elif fn is check_projection_algebra:
            res = fn(n_dense=n_dense)
        else:
            res = fn()
        results.append(res)
        if progress is not None:
            progress(res)
    return results
