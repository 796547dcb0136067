"""Forward quasi-affine map, Lyapunov operator, and expectation curves.

The map ``omega`` sends a half-line state to the positive-Hardy component of
its zero-padded extension; the Lyapunov operator is ``M = omega* omega``.
Expectation values ``(psi_t, M psi_t)`` along a unitary trajectory equal
``|T_u(t) omega psi|^2``.  ``T_u(t)`` is a truncated slice of the time
samples, so at lattice time ``k * delta_tau`` this is the power of
``omega psi`` in the time bins ``j >= k``: a whole curve is one forward FFT
and one reverse cumulative sum.  The dense matrices built here are only
needed for spectra and for the polar decomposition downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import _hardy_scale, _sigma_to_tau, guard_band_leakage
from .spaces import GridSpec, LinOp, Space, SpaceMismatchError, StateVector, norm
from .evolution import _semigroup_index

__all__ = [
    "TrajectoryReport",
    "apply_omega",
    "build_omega",
    "build_m_f",
    "lyapunov_curve",
]


def apply_omega(psi: StateVector) -> StateVector:
    """Matrix-free forward map: zero-pad to the full line, keep the positive-
    Hardy part.  Contractive; HALF_LINE_POS -> HARDY_PLUS."""
    if psi.space is not Space.HALF_LINE_POS:
        raise SpaceMismatchError("the forward map acts on HALF_LINE_POS states")
    b = _omega_block(psi.grid, psi.amplitudes[:, None])[:, 0]
    return StateVector(psi.grid, Space.HARDY_PLUS, b)


def _omega_block(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Hardy amplitudes of ``omega`` applied to each column of an ``N x m``
    block of half-line amplitudes: one FFT of the zero-padded block, whose
    time samples at ``tau >= 0`` are kept (fibres and columns share it)."""
    nh, m = grid.n_half(), a.shape[1]
    full = np.zeros((grid.n_sigma, grid.k_dim * m), dtype=np.complex128)
    full[nh:] = a.reshape(nh, -1)
    kept = _sigma_to_tau(grid, full, out=full)[nh:]
    return np.multiply(kept, _hardy_scale(grid), out=kept).reshape(-1, m)


def _dft_lookup(n_sigma: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exp(-2 pi i a_j a_m / (4 n_sigma)) / sqrt(n_sigma) for odd integers a
    # is table[index]: the phase is reduced exactly in integers before one
    # lookup into the 4 n_sigma roots of unity, so no large angle is rounded.
    index = np.multiply.outer(a, a)
    index %= 4 * n_sigma
    roots = np.exp(-0.5j * np.pi / n_sigma * np.arange(4 * n_sigma))
    return index, roots / np.sqrt(n_sigma)


def build_omega(grid: GridSpec) -> LinOp:
    """Dense matrix of the forward map on the given grid.

    Contractive (largest singular value <= 1) and injective in the discrete
    model; the smallest singular value shrinks toward zero as the grid
    refines, which is why downstream factorizations never invert it.

    In closed form, with ``n = n_sigma`` and ``j, m < n/2`` indexing the
    positive energy and time bins, the scalar block is the offset DFT block
    ``exp(-2 pi i (j + 1/2)(m + 1/2) / n) / sqrt(n)``, whatever
    ``sigma_max``; fibres multiply it by the identity, so it is stored per bin.
    """
    index, table = _dft_lookup(grid.n_sigma, 2 * np.arange(grid.n_half()) + 1)
    return LinOp(grid, Space.HALF_LINE_POS, Space.HARDY_PLUS, table[index])


def build_m_f(grid: GridSpec) -> LinOp:
    """Dense Lyapunov operator ``omega* omega``, hermitized.

    Hermitian, nonnegative, contractive, and injective on the discrete
    half-line space; its eigenvalues fill (0, 1) increasingly densely as the
    grid refines.  Stored per bin, as the forward map is.
    """
    om = build_omega(grid)._entries
    m = om.conj().T @ om
    m = 0.5 * (m + m.conj().T)
    return LinOp(grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, m, hermitian=True)


@dataclass(frozen=True)
class TrajectoryReport:
    """Expectation curve along a unitary trajectory plus diagnostics.

    ``expectations[i] = (psi_{t_i}, M psi_{t_i})`` and ``norms[i] =
    |psi_{t_i}|`` (constant up to rounding — evolution is unitary).
    ``max_monotonicity_violation`` is the largest increase between
    consecutive expectations (0.0 for a perfectly monotone curve) and
    ``guard_band_leakage`` is the time-profile leakage diagnostic of the
    initial state's forward image.
    """

    times: np.ndarray
    expectations: np.ndarray
    norms: np.ndarray
    guard_band_leakage: float
    max_monotonicity_violation: float

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.expectations) == len(self.norms)):
            raise ValueError("trajectory arrays must have equal length")


def lyapunov_curve(psi: StateVector, time_grid: np.ndarray) -> TrajectoryReport:
    """Evaluate the expectation curve on a lattice time grid.

    The forward image ``b = omega psi`` is the curve's one FFT; the
    expectation at lattice index ``k`` is its tail power ``sum_{j >= k}
    |b_j|^2 delta_sigma`` (zero once ``k`` reaches the half window), read off
    one reverse cumulative sum, and the guard-band leakage is read off ``b``
    too.  ``norms`` is ``|psi|`` at every time: the evolution
    group is unitary.
    """
    times = np.asarray(time_grid, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    ks = _semigroup_index(psi.grid, times)
    b = apply_omega(psi)
    leakage = guard_band_leakage(b)  # read off b: no transform
    power = (np.abs(b.fibered()) ** 2 * psi.grid.delta_sigma).sum(axis=1)
    tail = np.append(np.cumsum(power[::-1])[::-1], 0.0)
    expectations = tail[np.minimum(ks, power.size)]
    norms = np.full(times.size, norm(psi))
    diffs = np.diff(expectations)
    violation = float(diffs.max(initial=0.0).clip(min=0.0))
    return TrajectoryReport(
        times=times,
        expectations=expectations,
        norms=norms,
        guard_band_leakage=leakage,
        max_monotonicity_violation=violation,
    )
