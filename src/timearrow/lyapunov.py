"""Forward quasi-affine map, Lyapunov operator, and expectation curves.

The map ``omega`` sends a half-line state to the positive-Hardy component of
its extension by zero; the Lyapunov operator is ``M = omega* omega``.
Expectation values ``(psi_t, M psi_t)`` along a unitary trajectory equal
``|T_u(t) omega psi|^2``.  ``T_u(t)`` is a truncated slice of the time
samples, so at lattice time ``k * delta_tau`` this is the power of
``omega psi`` in the time bins ``j >= k``: a whole curve is one forward map
and one reverse cumulative sum.  The dense matrices built here, ``M`` from
its closed form without ``omega``, are only needed for spectra and checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import _power_leakage
from .spaces import (
    GridSpec, LinOp, Space, SpaceMismatchError, StateVector, _half_bin, norm,
)
from .evolution import _grid_index

__all__ = [
    "TrajectoryReport",
    "apply_omega",
    "build_omega",
    "build_m_f",
    "lyapunov_curve",
]


def apply_omega(psi: StateVector) -> StateVector:
    """Matrix-free forward map, on the half line: the positive-Hardy part of
    the zero extension.  Contractive; HALF_LINE_POS -> HARDY_PLUS."""
    if psi.space is not Space.HALF_LINE_POS:
        raise SpaceMismatchError("the forward map acts on HALF_LINE_POS states")
    b = _omega_block(psi.grid, psi.amplitudes[:, None])[:, 0]
    return StateVector(psi.grid, Space.HARDY_PLUS, b)


def _omega_block(grid: GridSpec, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``omega`` (``omega*`` if ``adjoint``) on each column of a block of
    half-line amplitudes, a pruned FFT: with ``q = n / 4`` and ``w_j = exp(-i
    pi j / n)``, bin ``4 s + r`` is entry ``s`` of ``FFT(w_j^(2r+1) (a_j + c_r
    a_(j+q)))`` times ``w_s^4 exp(-i pi (2r + 1) / (2n)) / sqrt(n)``, ``c_r =
    exp(-i pi (2r + 1) / 4)``: four FFTs through one quarter-length buffer,
    their input phases from one quarter-length table of ``w``, and the output
    phases from one of ``w_s^4``.  ``omega* = conj omega conj``."""
    n, m, q = grid.n_sigma, a.shape[1], grid.n_sigma // 4
    a, p = a.reshape(2 * q, -1), _half_bin(n, np.arange(q, dtype=complex))[:, None]
    buf, out = np.empty((q, a.shape[1]), complex), np.empty(a.shape, complex)
    # p is w, conj(w), conj(w)^3, w^3 in turn, in place: w_j^8 = exp(-2 pi i j
    # / q) moves an FFT one entry on, so w^5 and w^7 read conj(w)^3, conj(w)
    for r in (0, 3, 2, 1):
        if r == 2:
            np.power(p, 3, out=p)
        elif r:
            np.conjugate(p, out=p)
        c = _half_bin(-4 if adjoint else 4, (1, 3, -3, -1)[r])  # c_r, or conj
        np.add(a[:q], np.multiply(c, a[q:], out=buf), out=buf)
        if adjoint:
            np.conjugate(buf, out=buf)
        np.multiply(p, buf, out=buf)
        out[r::4] = np.fft.fft(buf, axis=0, out=buf)[r // 2 : r // 2 + q // 2]
    del p, buf
    w4 = _half_bin(n, 4 * np.arange(q // 2, dtype=complex))[:, None]  # w_s^4
    ends = _half_bin(2 * n, np.arange(1, 8, 2, dtype=complex)) / np.sqrt(n)
    bins = out.reshape(q // 2, 4, -1)  # [s, r] is bin 4 s + r
    np.multiply(w4[:, :, None], bins, out=bins)
    np.multiply(ends[:, None], bins, out=bins)
    return (np.conjugate(out, out=out) if adjoint else out).reshape(-1, m)


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
    """Dense Lyapunov operator ``omega* omega``, from its closed form.

    Summing the offset DFT block's geometric series gives ``M = I/2 + i H``
    with ``H_jm = 1 / (n sin(pi (j - m) / n))`` for odd ``j - m`` and 0
    otherwise (``n = n_sigma``): a discrete Hilbert transform compressed to
    the half line, Toeplitz and antisymmetric entry for entry, so ``M`` is
    Hermitian exactly.  With ``S = diag((-1)^j)`` it obeys the complement law
    ``S M S = I - M``, so its eigenvalues pair as ``lambda_k + lambda_(N-1-k)
    = 1``; they fill (0, 1) increasingly densely as the grid refines.
    Stored per bin, as the forward map is.
    """
    nh, n = grid.n_half(), grid.n_sigma
    h = 1.0 / (n * np.sin(np.pi / n * np.arange(1, nh, 2)))
    t = np.zeros(2 * nh - 1, dtype=complex)  # entry (j, m) is t[nh - 1 + j - m]
    t[nh - 1] = 0.5
    t.imag[nh::2] = h
    t.imag[nh - 2 :: -2] = -h
    m = np.lib.stride_tricks.sliding_window_view(t[::-1], nh)[::-1]
    return LinOp._hermitian_by_construction(grid, Space.HALF_LINE_POS, m)


@dataclass(frozen=True, eq=False)
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
    """Evaluate the expectation curve on a lattice time grid (a scalar time is
    a grid of one).

    The forward image ``b = omega psi`` is the curve's one transform; the
    expectation at lattice index ``k`` is its tail power ``sum_{j >= k}
    |b_j|^2 delta_sigma`` (zero once ``k`` reaches the half window), read off
    one reverse cumulative sum; the guard-band leakage reads the same squared
    image.  ``norms`` is ``|psi|`` at every time: the evolution is unitary.
    """
    times = np.atleast_1d(np.asarray(time_grid, dtype=np.float64))
    ks = _grid_index(psi.grid, times)
    sq = np.abs(apply_omega(psi).fibered()) ** 2  # one squared image for both
    leakage = _power_leakage(psi.grid, np.sum(sq, axis=1))
    power = (sq * psi.grid.delta_sigma).sum(axis=1)
    tail = np.append(np.cumsum(power[::-1])[::-1], 0.0)
    expectations = tail[np.minimum(ks, power.size)]
    violation = float(np.diff(expectations).max(initial=0.0).clip(min=0.0))
    norms = np.full(times.size, norm(psi))
    return TrajectoryReport(times, expectations, norms, leakage, violation)
