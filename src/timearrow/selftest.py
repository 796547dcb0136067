"""Self-contained acceptance checks for the whole construction.

Twelve checks, split into an exact-algebra tier (machine-precision identities
of the discrete model, dense tier at ``n_dense`` half-line bins) and a
continuum tier (truncation-limited statements with convergence under grid
refinement, at pinned grids).  :data:`CHECKS` is their table, one
``(criterion, name, tier, check)`` row each.  A check takes the one shared
dense-tier model (the continuum checks ignore it) and returns ``(passed,
details)``, the measured residuals; :func:`run_all` times and wraps each in a
:class:`CheckResult`.  The CLI ``selftest`` command and the acceptance tests
drive exactly this table.  Criteria 3, 5 and 6 read ``R``'s unitarity (5 its
composition laws too, as blocks; 6 through the family's residuals) off the
real defect that ``projection-family`` reads, and criteria 4, 5, 7 and 12 act
on blocks of states or times; the complex and dense routes are test oracles.
Thresholds are fixed contracts of the model, not configuration.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import (
    OffLatticeWarning, _toeplitz_block, _unitary_block, kernel_witness, lattice_index,
    toeplitz_step,
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
    _isometry_defect,
    _z_block,
    build_model,
    intertwining_residual,
)
from .lyapunov import _omega_block, apply_omega, build_m_f, build_omega, lyapunov_curve
from .ordering import correspondence_check, spectral_measure
from .spaces import _column_norms, make_grid, norm
from .states import compact_profile_state, random_guarded_state, smooth_oracle_state

__all__ = ["CheckResult", "run_all", "refinement_series", "CHECKS"]

# Pinned sweep shape for the exact-algebra criteria: lattice shifts up to 64
# bins (transport keeps guard-banded states clear of the window edges there),
# 20 times x 20 states.
_SWEEP_MAX_SHIFT = 64
_SWEEP_TIMES = 20
_SWEEP_STATES = 20
_LAW_PAIRS = ((1, 2), (3, 5), (8, 13), (16, 21), (20, 44), (32, 32))  # criterion 5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check, in plain built-in types (a bool, a
    dict of floats) so that it serializes to JSON as-is."""

    criterion: int
    name: str
    tier: str
    passed: bool
    details: dict
    elapsed: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = ", ".join(f"{k}={v:.3e}" for k, v in sorted(self.details.items()))
        return (
            f"criterion {self.criterion:2d} [{self.tier}] {status} "
            f"{self.name} ({worst}) [{self.elapsed:.2f}s]"
        )


def _sweep_shifts() -> np.ndarray:
    return np.unique(
        np.round(np.linspace(0, _SWEEP_MAX_SHIFT, _SWEEP_TIMES)).astype(int)
    )


def _lattice_time(grid, t: float) -> float:
    """The lattice time that ``snap=True`` rounds ``t`` to, without its warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OffLatticeWarning)
        return lattice_index(grid, t, snap=True) * grid.delta_tau


def _guarded_set(grid, seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_guarded_state(grid, rng) for _ in range(count)]


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _defect_norms(model: IrreversibleModel) -> tuple[float, list[float]]:
    """``|R^H R - I| = |Z(0) - I|`` and, per pair of :data:`_LAW_PAIRS`,
    ``|Z(a)Z(b) - Z(a+b)| = |R[:n-a]^H G[a:, :n-b] R[b:]|``, ``G = R R^H - I``:
    norms of the real defect ``D* G D`` and of its blocks (unitary legs drop
    out; empty once ``b >= n``), lifted as criterion 6's are."""
    d, lift = _isometry_defect(model.isometry), np.sqrt(model.grid.k_dim)
    laws = [_frob(d[a:, : max(len(d) - b, 0)]) * lift for a, b in _LAW_PAIRS]
    return _frob(d) * lift, laws


def _relative_gap(grid, a: np.ndarray, b: np.ndarray) -> float:
    """The worst ``|a_j - b_j| / |b_j|`` over the columns of two blocks."""
    return float((_column_norms(grid, a - b) / _column_norms(grid, b)).max())


def check_projection_algebra(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 1: Hardy and half-line projections form exact complements."""
    grid = model.grid
    n = grid.n_sigma
    eye = np.eye(n, dtype=np.complex128)
    mask = (grid.tau() >= 0.0)[:, None]
    # Matrices of hardy_project(.., "plus"/"minus") applied to basis columns.
    stack = _sigma_to_tau(grid, eye)
    p_plus = _tau_to_sigma(grid, np.where(mask, stack, 0.0))
    p_minus = _tau_to_sigma(grid, np.where(mask, 0.0, stack))
    d_pos = (grid.sigma() >= 0.0).astype(np.float64)
    d_neg = 1.0 - d_pos
    details = {
        "hardy_idempotency": max(
            _frob(p_plus @ p_plus - p_plus), _frob(p_minus @ p_minus - p_minus)
        ),
        "hardy_hermiticity": max(
            _frob(p_plus - p_plus.conj().T), _frob(p_minus - p_minus.conj().T)
        ),
        "hardy_complementarity": _frob(p_plus + p_minus - eye),
        "halfline_idempotency": max(
            _frob(d_pos * d_pos - d_pos), _frob(d_neg * d_neg - d_neg)
        ),
        "halfline_hermiticity": max(
            _frob(d_pos - d_pos.conj()), _frob(d_neg - d_neg.conj())
        ),
        "halfline_complementarity": _frob(d_pos + d_neg - 1.0),
    }
    return all(v <= 1e-12 for v in details.values()), details


def check_lyapunov_operator(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 2: the Lyapunov operator is a Hermitian contraction with
    trivial kernel, equal to the forward map's normal product."""
    m = build_m_f(model.grid).matrix
    om = build_omega(model.grid).matrix
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
    return passed, details


def check_polar_factorization(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 3: square root squares back, the polar factor is unitary (the
    real defect), and the factorization reassembles the forward map."""
    lam = model.lam.matrix
    defect, _ = _defect_norms(model)
    details = {
        "sqrt_residual": _frob(lam @ lam - build_m_f(model.grid).matrix),
        "isometry_left": defect,
        "isometry_right": defect,
        "polar_residual": _frob(model.isometry.matrix @ lam
                                - build_omega(model.grid).matrix),
    }
    passed = (details["sqrt_residual"] <= 1e-10 and defect <= 1e-10
              and details["polar_residual"] <= 1e-8)
    return passed, details


def check_intertwining(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 4: the square root and the forward map both intertwine
    unitary evolution with their semigroups, across a lattice-time sweep."""
    grid = model.grid
    psi_set = _guarded_set(grid, seed=401, count=_SWEEP_STATES)
    ks = _sweep_shifts()
    times = ks * grid.delta_tau
    # The adjoint relation u(-t) lam = lam Z*(t) moves mass backward through
    # the transported representation, so its natural domain is the range of
    # lam: states guard-banded *after* transport.
    transported = [model.lam.apply(psi) for psi in psi_set]
    worst_fwd, _ = intertwining_residual(model, times, psi_set)
    _, worst_adj = intertwining_residual(model, times, transported)
    # omega u(t) = T(t) omega, one column per sweep time
    worst_omega = 0.0
    for psi in psi_set:
        lhs = _omega_block(grid, _unitary_block(psi, times))
        rhs = _toeplitz_block(grid, apply_omega(psi).amplitudes, ks)
        worst_omega = max(worst_omega, _column_norms(grid, lhs - rhs).max() / norm(psi))
    details = {
        "lambda_forward": worst_fwd,
        "lambda_adjoint": worst_adj,
        "omega_route": worst_omega,
    }
    return all(v <= 1e-8 for v in details.values()), details


def check_semigroup_laws(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 5: semigroup identity and composition laws off the real defect,
    and the co-isometries of ``Z`` and ``T`` on a guarded block, one per time."""
    grid = model.grid
    states = _guarded_set(grid, seed=402, count=_SWEEP_STATES)
    psi = np.column_stack([p.amplitudes for p in states])
    h = _omega_block(grid, psi)
    # Z's co-isometry, like the adjoint intertwining, lives on states that
    # are guard-banded in the transported representation: the range of lam.
    chi = model.lam._act(psi)
    identity, laws = _defect_norms(model)
    zz = tt = 0.0
    for k in (1, 5, 16, 44, _SWEEP_MAX_SHIFT):
        back = _z_block(model, _z_block(model, chi, -k), k)  # Z(t) Z*(t) chi
        zz = max(zz, _relative_gap(grid, back, chi))
        tt = max(tt, _relative_gap(
            grid, _toeplitz_block(grid, _toeplitz_block(grid, h, -k), k), h))
    details = {
        "z_identity": identity,
        "z_composition": max(laws),
        "z_coisometry": zz,
        "toeplitz_coisometry": tt,
    }
    return all(v <= 1e-8 for v in details.values()), details


def check_projection_family(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 6: the past-projection family is an exact nested resolution
    with the right ranks, read from the real defect ``D* R R^H D - I``.

    Ranks and the idempotency, nesting and complement residuals are
    :meth:`ProjectionFamily.residuals
    <timearrow.ordering.ProjectionFamily.residuals>`, the numbers
    ``projection-family`` writes; increment ``i`` has the spectrum of
    ``G[e_i:e_{i+1}, e_i:e_{i+1}]``, ``G = R R^H``, plus zeros, since
    ``spec(A^H A) = spec(A A^H) + {0}``: one plus that of the defect's block.
    """
    grid = model.grid
    nh = grid.n_half()
    ks = np.arange(0, nh + 1, max(nh // 8, 1))
    family = spectral_measure(model, ks * grid.delta_tau)
    ranks, idems, nests, comps = zip(*family.residuals())
    idem, nest, comp = max(idems), max(nests), max(comps)
    d, ends = family.defect, family.row_ends
    spectra = np.concatenate([
        np.append(np.linalg.eigvalsh(d[a:b, a:b]) + 1.0, np.zeros(d.shape[0] - (b - a)))
        for a, b in itertools.pairwise(ends)
    ])
    inc_eig_lo, inc_eig_hi = float(spectra.min()), float(spectra.max())
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


def check_correspondence(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 7: reversible expectations equal future-projection weights
    in the transported picture, across the sweep."""
    grid = model.grid
    times = _sweep_shifts() * grid.delta_tau
    worst = max(
        float(correspondence_check(model, psi, times)[2].max())
        for psi in _guarded_set(grid, seed=403, count=_SWEEP_STATES)
    )
    return worst <= 1e-8, {"relative_difference": worst}


def check_lyapunov_monotonicity(_model: IrreversibleModel) -> tuple[bool, dict]:
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
    # timing is part of the contract here but stays out of `details`, so
    # written reports stay byte-identical across reruns
    details = {
        "max_violation": violation,
        "quarter_window_ratio": ratio,
        "guard_band_leakage": leakage,
    }
    return violation <= 1e-10 and ratio <= 0.05 and elapsed <= 5.0, details


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
    for n, ell in _REFINEMENT:
        grid = make_grid(n, ell, 1)
        defects = []
        for order in (1, 2):
            f = rational_hardy(grid, [(-1j, order)])
            defects.append(norm(hardy_project(f, "plus") - f) / norm(f))
        t0 = _lattice_time(grid, 1.0)
        w = kernel_witness(grid, -1j, t0)
        ratio = norm(toeplitz_step(w, t0)) / norm(w)
        rows.append((n, ell, defects[0], defects[1], ratio))
    return rows


def check_rational_membership(_model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 9: rational functions with lower-half-plane poles stay in
    the positive Hardy subspace up to a truncation error that shrinks with
    the energy cutoff."""
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
    return passed, details


def check_kernel_witness(_model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 10: the explicit semigroup-kernel witness dies at its design
    time and carries the analytically known norm and half-time ratio."""
    ratios = [row[4] for row in refinement_series()]
    grid = make_grid(4096, 100.0, 1)
    f = kernel_witness(grid, -1j, _lattice_time(grid, 1.0))
    half_ratio = norm(toeplitz_step(f, _lattice_time(grid, 0.5))) / norm(f)
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
    return passed, details


def check_oracle_agreement(_model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 11: FFT projection and principal-value quadrature agree on
    smooth cut-clearing states."""
    grid = make_grid(1024, 50.0, 1)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(30):
        f = smooth_oracle_state(grid, rng)
        fft_route = hardy_project(f, "plus")
        pv_route = hardy_project_oracle(f)
        worst = max(worst, norm(fft_route - pv_route) / norm(f))
    return worst <= 1e-3, {"worst_relative_difference": worst}


def check_decay_surrogates(model: IrreversibleModel) -> tuple[bool, dict]:
    """Criterion 12: all three decay statements (expectation curve, Toeplitz
    norm, contraction-semigroup norm) reach 1e-6 of initial by half the
    window on compact-profile states."""
    grid = model.grid
    nh = grid.n_half()
    rng = np.random.default_rng(412)
    # genuine interior decay at 3/8 of the window plus the horizon itself
    ks = np.array([3 * nh // 4, nh])
    times = np.append(0, ks) * grid.delta_tau
    lyap = toep = zdec = 0.0
    for _ in range(10):
        psi = compact_profile_state(grid, rng)
        curve = lyapunov_curve(psi, times).expectations
        h = apply_omega(psi)
        transported = model.lam.apply(psi)
        z = _z_block(model, transported.amplitudes, ks)
        tail = _toeplitz_block(grid, h.amplitudes, ks)
        lyap = max(lyap, curve[1:].max() / curve[0])
        toep = max(toep, _column_norms(grid, tail).max() / norm(h))
        zdec = max(zdec, _column_norms(grid, z).max() / norm(transported))
    details = {
        "expectation_ratio": lyap,
        "toeplitz_norm_ratio": toep,
        "z_norm_ratio": zdec,
    }
    return all(v <= 1e-6 for v in details.values()), details


CHECKS = (
    (1, "projection-algebra", "algebraic", check_projection_algebra),
    (2, "lyapunov-operator", "algebraic", check_lyapunov_operator),
    (3, "polar-factorization", "algebraic", check_polar_factorization),
    (4, "intertwining", "algebraic", check_intertwining),
    (5, "semigroup-laws", "algebraic", check_semigroup_laws),
    (6, "projection-family", "algebraic", check_projection_family),
    (7, "correspondence", "algebraic", check_correspondence),
    (8, "lyapunov-monotonicity", "algebraic", check_lyapunov_monotonicity),
    (9, "rational-hardy-membership", "continuum", check_rational_membership),
    (10, "kernel-witness", "continuum", check_kernel_witness),
    (11, "hilbert-oracle-agreement", "continuum", check_oracle_agreement),
    (12, "decay-surrogates", "continuum", check_decay_surrogates),
)


def run_all(n_dense: int = 512, progress=None) -> list[CheckResult]:
    """Run every acceptance check in :data:`CHECKS` on one dense-tier model.

    The model is built once, at ``2 * n_dense`` bins.  ``progress``, if
    given, is called with each :class:`CheckResult` as it completes.
    """
    model = build_model(make_grid(2 * n_dense, 100.0, 1))
    results = []
    for criterion, name, tier, check in CHECKS:
        start = time.perf_counter()
        passed, details = check(model)
        details = {k: float(v) for k, v in details.items()}
        elapsed = time.perf_counter() - start
        result = CheckResult(criterion, name, tier, bool(passed), details, elapsed)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
