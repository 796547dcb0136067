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

from .hardy import _hardy_scale, _sigma_to_tau, guard_band_leakage, hardy_embed
from .spaces import (
    GridSpec,
    LinOp,
    Space,
    SpaceMismatchError,
    StateVector,
    norm,
    restrict,
)
from .evolution import _semigroup_index

__all__ = [
    "TrajectoryReport",
    "apply_omega",
    "apply_omega_adjoint",
    "build_omega",
    "build_m_f",
    "lyapunov_expectation",
    "lyapunov_curve",
    "f_m_membership",
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
    return (_sigma_to_tau(grid, full)[nh:] * _hardy_scale(grid)).reshape(-1, m)


def apply_omega_adjoint(h: StateVector) -> StateVector:
    """Matrix-free adjoint: include the Hardy state in the full line, then
    restrict to positive frequencies.  HARDY_PLUS -> HALF_LINE_POS."""
    return restrict(hardy_embed(h))


def _dft_block(n_sigma: int, a: np.ndarray) -> np.ndarray:
    # exp(-2 pi i a_j a_m / (4 n_sigma)) / sqrt(n_sigma) for odd integers a.
    # The phase is reduced exactly in integers before one lookup into a
    # table of the 4 n_sigma roots of unity, so no large angle is rounded.
    phase = np.multiply.outer(a, a)
    phase %= 4 * n_sigma
    roots = np.exp(-0.5j * np.pi / n_sigma * np.arange(4 * n_sigma))
    return (roots / np.sqrt(n_sigma))[phase]


def _fiberize(block: np.ndarray, k_dim: int) -> np.ndarray:
    if k_dim == 1:
        return block
    return np.kron(block, np.eye(k_dim))


def build_omega(grid: GridSpec) -> LinOp:
    """Dense matrix of the forward map on the given grid.

    Contractive (largest singular value <= 1) and injective in the discrete
    model; the smallest singular value shrinks toward zero as the grid
    refines, which is why downstream factorizations never invert it.

    In closed form, with ``n = n_sigma`` and ``j, m < n/2`` indexing the
    positive energy and time bins, the scalar block is the offset DFT block
    ``exp(-2 pi i (j + 1/2)(m + 1/2) / n) / sqrt(n)``, whatever
    ``sigma_max``; fibres multiply it by the identity.
    """
    block = _dft_block(grid.n_sigma, 2 * np.arange(grid.n_half()) + 1)
    return LinOp(
        grid,
        Space.HALF_LINE_POS,
        Space.HARDY_PLUS,
        _fiberize(block, grid.k_dim),
    )


def build_m_f(grid: GridSpec) -> LinOp:
    """Dense Lyapunov operator ``omega* omega``, hermitized.

    Hermitian, nonnegative, contractive, and injective on the discrete
    half-line space; its eigenvalues fill (0, 1) increasingly densely as the
    grid refines.
    """
    om = build_omega(grid).matrix
    m = om.conj().T @ om
    m = 0.5 * (m + m.conj().T)
    return LinOp(grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, m, hermitian=True)


def lyapunov_expectation(psi: StateVector, t: float, snap: bool = False) -> float:
    """Expectation ``(psi_t, M psi_t)`` at lattice time ``t``, matrix-free.

    Equal to ``|T_u(t) omega psi|^2`` by the intertwining of the forward map
    with evolution, hence non-increasing in ``t`` and bounded by ``|psi|^2``:
    the tail power of ``omega psi``, the one-time case of :func:`lyapunov_curve`
    (without the curve's guard-band diagnostic).
    """
    return float(_tail_power(psi, t, snap)[1])


def _tail_power(psi: StateVector, t, snap: bool) -> tuple[StateVector, np.ndarray]:
    """``b = omega psi`` and its tail power ``sum_{j >= k} |b_j|^2 delta_sigma``
    at the lattice index ``k`` of each time (zero from the half window on)."""
    b = apply_omega(psi)
    ks = _semigroup_index(psi.grid, t, snap)
    power = (np.abs(b.fibered()) ** 2 * psi.grid.delta_sigma).sum(axis=1)
    tail = np.append(np.cumsum(power[::-1])[::-1], 0.0)
    return b, tail[np.minimum(ks, power.size)]


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


def lyapunov_curve(
    psi: StateVector, time_grid: np.ndarray, snap: bool = False
) -> TrajectoryReport:
    """Evaluate the expectation curve on a lattice time grid.

    The forward image ``b = omega psi`` is computed once; the expectation at
    lattice index ``k`` is its tail power ``sum_{j >= k} |b_j|^2 delta_sigma``
    (zero once ``k`` reaches the half window), read off one reverse
    cumulative sum.  ``norms`` is ``|psi|`` at every time: the evolution
    group is unitary.
    """
    times = np.asarray(time_grid, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    b, expectations = _tail_power(psi, times, snap)
    norms = np.full(times.size, norm(psi))
    diffs = np.diff(expectations)
    violation = float(diffs.max(initial=0.0).clip(min=0.0))
    return TrajectoryReport(
        times=times,
        expectations=expectations,
        norms=norms,
        guard_band_leakage=guard_band_leakage(b),
        max_monotonicity_violation=violation,
    )


def f_m_membership(psi: StateVector, m: float) -> bool:
    """Whether ``psi`` lies in the ordering set of level ``m``.

    True iff the normalized expectation ``(psi, M psi)/|psi|^2`` is at most
    ``m``.  The sets nest by construction, every state belongs at ``m = 1``
    (contractivity), and none at ``m = 0`` (injectivity); forward evolution
    never leaves a set.
    """
    if psi.space is not Space.HALF_LINE_POS:
        raise ValueError("f_m_membership expects a HALF_LINE_POS state")
    ns = norm(psi) ** 2
    if ns == 0.0:
        raise ValueError("membership is undefined for the zero state")
    return float(norm(apply_omega(psi)) ** 2) / ns <= m
