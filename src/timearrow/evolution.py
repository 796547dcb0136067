"""Evolution group, compressed semigroup, and the kernel witness state.

``unitary_evolve`` multiplies by the diagonal phase ``exp(-i sigma t)``; in
the time domain this is a lattice shift, so a state's profile moves left by
``t``.  Compressing the group to the positive Hardy subspace gives the
truncated-left-shift semigroup ``toeplitz_step``.  On the lattice it and its
adjoint, the zero-padded right shift, are slices of the stored time samples
(``_toeplitz_block`` with ``k`` and ``-k``), and are computed as such.  On a
time grid the same rule gives blocks with one column per time, which
consumers take in chunks of ``_BLOCK_COLUMNS`` columns to bound memory.

Shift identities are exact only at lattice times ``t = k * delta_tau``, so
every function of a time raises :class:`OffLatticeTimeError` off the
lattice.  Rounding is ``_snap``'s alone, and silent; :func:`lattice_index`
is ``_snap`` plus the off-lattice error.  A caller that wants rounded times
passes ``_snap(grid, t)[0] * delta_tau``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hardy
from ._config import _BLOCK_COLUMNS
from .spaces import GridSpec, Space, SpaceMismatchError, StateVector, make_grid

__all__ = [
    "OffLatticeTimeError",
    "lattice_index",
    "unitary_evolve",
    "toeplitz_step",
    "kernel_witness",
]

# Relative slack when deciding whether a time sits on the dual lattice.
_LATTICE_RTOL = 1e-9


class OffLatticeTimeError(ValueError):
    """A time was not a multiple of delta_tau, or had no int64 index;
    ``index`` is the offending entry's flat position in an array of times."""

    index: int | None = None


def _first(t: np.ndarray, mask: np.ndarray) -> tuple[int, str]:
    """Flat position and label of the first entry of ``t`` where ``mask`` holds."""
    i = int(np.flatnonzero(mask)[0])
    return i, f"{f't[{i}]' if t.ndim else 't'} = {float(t.flat[i])}"


def _off_lattice(t: np.ndarray, mask: np.ndarray, what: str) -> OffLatticeTimeError:
    """The error naming the first entry of ``t`` where ``mask`` holds."""
    i, label = _first(t, mask)
    exc = OffLatticeTimeError(f"{label} {what}")
    exc.index = i if t.ndim else None
    return exc


def _snap(grid: GridSpec, t):
    """The nearest dual-lattice indices of times ``t``, half to even (an ``int``
    for a scalar, else an int64 array of its shape), and the mask of the times
    they move.  A time whose index is not finite or does not fit in int64
    raises :class:`OffLatticeTimeError`."""
    t, dt = np.asarray(t, dtype=np.float64), grid.delta_tau
    with np.errstate(all="ignore"):  # a huge t overflows to inf: no index
        ratio = t / dt
    k = np.rint(ratio)
    bad = ~(np.abs(k) < 2.0**63)
    if bad.any():
        raise _off_lattice(t, bad, f"has no dual-lattice index (delta_tau = {dt})")
    moved = np.abs(ratio - k) > _LATTICE_RTOL * np.maximum(1.0, np.abs(ratio))
    return (int(k) if k.ndim == 0 else k.astype(np.int64)), moved


def lattice_index(grid: GridSpec, t):
    """Convert times to their dual-lattice indices ``k`` with ``t = k*delta_tau``.

    A scalar ``t`` gives an ``int``; an array gives an int64 array of the
    same shape.  Raises :class:`OffLatticeTimeError` naming the first time
    that is off the lattice or whose index is not finite or does not fit in
    int64.
    """
    k, moved = _snap(grid, t)
    if moved.any():
        raise _off_lattice(np.asarray(t, dtype=np.float64), moved,
                           f"is not on the dual lattice (delta_tau = {grid.delta_tau})")
    return k


def unitary_evolve(f: StateVector, t: float) -> StateVector:
    """Apply the evolution group: multiply bin ``j`` by ``exp(-i sigma_j t)``.

    Accepts any space tag and arbitrary real ``t``; norm-preserving, with the
    exact group law ``u(t)u(s) = u(t+s)``.  The positive Hardy subspace is
    not invariant under the group (forward evolution shifts its time profile
    across the cut), so HARDY_PLUS input is embedded first and the result
    carries the FULL_LINE tag; compress with :func:`toeplitz_step` to stay
    inside the subspace.
    """
    if f.space is Space.HARDY_PLUS:
        f = hardy.hardy_embed(f)
    return StateVector(f.grid, f.space, _unitary_block(f, t))


def _unitary_block(f: StateVector, t) -> np.ndarray:
    """Amplitudes of ``u(t) f`` (FULL_LINE or HALF_LINE_POS), one column per
    time when ``t`` is an array; fibres share their bin's phase."""
    sigma = f.grid.sigma() if f.space is Space.FULL_LINE else f.grid.sigma_pos()
    phase = np.repeat(np.exp(-1j * np.multiply.outer(sigma, t)), f.grid.k_dim, axis=0)
    return (phase.T * f.amplitudes).T


def _column_chunks(n: int) -> list[slice]:
    """Consecutive column ranges of at most ``_BLOCK_COLUMNS`` covering ``n``."""
    return [slice(lo, lo + _BLOCK_COLUMNS) for lo in range(0, n, _BLOCK_COLUMNS)]


def _toeplitz_block(grid: GridSpec, a: np.ndarray, k) -> np.ndarray:
    """``T(k delta_tau)`` on Hardy amplitudes, a vector with an array of lattice
    indices ``k`` (one column each) or an ``N x m`` block with one: row ``j + k
    * k_dim`` in row ``j``, zero-padded, so ``-k`` gives ``T*``.  One gather
    from the windows of the padded rows, ``|k|`` capped at the bin count."""
    n = a.shape[0]
    bins = n // grid.k_dim
    e = np.clip(np.asarray(k), -bins, bins) * grid.k_dim
    padded = np.pad(a, [(n, n)] + [(0, 0)] * (a.ndim - 1))
    return sliding_window_view(padded, n, axis=0)[n + e].T


def _semigroup_index(grid: GridSpec, t):
    k = lattice_index(grid, t)
    negative = np.asarray(k) < 0
    if negative.any():
        _, label = _first(np.asarray(t, dtype=np.float64), negative)
        raise ValueError(f"semigroup times must be >= 0, got {label}")
    return k


def _grid_index(grid: GridSpec, t):
    """:func:`_semigroup_index` of a scalar time or a nonempty 1-d time grid:
    the one grid rule of every function of a time grid."""
    if np.ndim(t) > 1 or np.size(t) == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    return _semigroup_index(grid, t)


def toeplitz_step(f: StateVector, t: float) -> StateVector:
    """Compression of forward evolution to the positive Hardy subspace.

    On the lattice ``t = k * delta_tau`` this is the truncated left shift of
    the stored time samples: ``out[j] = f[j + k]``, zero-padded at the far
    edge.  It equals the spectral route (embed, multiply by the evolution
    phase, project back) to machine precision.  Contractive, with the exact
    semigroup law; annihilates every state once ``t`` reaches half the time
    window.
    """
    if f.space is not Space.HARDY_PLUS:
        raise SpaceMismatchError("Toeplitz operators act on HARDY_PLUS states")
    h = _toeplitz_block(f.grid, f.amplitudes, _semigroup_index(f.grid, t))
    return StateVector(f.grid, Space.HARDY_PLUS, h)


def kernel_witness(grid: GridSpec, mu: complex, t0: float) -> StateVector:
    """State annihilated by the compressed semigroup once ``t >= t0``.

    Samples

    .. math:: f(\\sigma) = \\frac{1}{\\sqrt{2\\pi}}\\,
              \\frac{1 - e^{i\\sigma t_0} e^{-i\\mu t_0}}{\\sigma - \\mu}

    on fibre 0, whose time profile is ``-i e^{-i mu tau}`` on ``[0, t0)`` and
    zero elsewhere, then returns its positive-Hardy component.  The ``1/sqrt(2
    pi)`` factor makes the profile's prefactor a unit modulus constant, so
    for ``mu = -i, t0 = 1`` the squared norm is the time-domain integral
    ``(1 - e^{-2})/2`` up to truncation error.

    ``t0`` must sit on the dual lattice, at index 1 or more, for the decay
    statements to converge under grid refinement; off the lattice it raises
    :class:`OffLatticeTimeError`.
    """
    mu = complex(mu)
    if not (mu.imag < 0):
        raise ValueError(f"witness pole {mu} must lie in the open lower half-plane")
    k0 = lattice_index(grid, t0)
    if k0 < 1:
        raise ValueError(f"witness support length t0 = {t0} must be at least one "
                         f"lattice step (delta_tau = {grid.delta_tau})")
    t0 = k0 * grid.delta_tau
    sigma = grid.sigma()
    scalar = (1.0 - np.exp(1j * sigma * t0) * np.exp(-1j * mu * t0)) / (sigma - mu)
    scalar /= np.sqrt(2.0 * np.pi)
    # one transform of the scalar profile, padded onto the other fibres last
    line = make_grid(grid.n_sigma, grid.sigma_max, 1)
    h = hardy.hardy_part(StateVector(line, Space.FULL_LINE, scalar)).fibered()
    h = np.pad(h, [(0, 0), (0, grid.k_dim - 1)])
    return StateVector(grid, Space.HARDY_PLUS, h.reshape(-1))
