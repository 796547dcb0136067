"""Evolution group, compressed semigroup, and the kernel witness state.

``unitary_evolve`` multiplies by the diagonal phase ``exp(-i sigma t)``; in
the time domain this is a lattice shift, so a state's profile moves left by
``t``.  Compressing the group to the positive Hardy subspace gives the
truncated-left-shift semigroup ``toeplitz_step`` and its isometric-on-
guard-banded-states adjoint ``toeplitz_adjoint``.  On the lattice both are
zero-padded slices of the stored time samples, and are computed as such.
On a time grid the same rules give blocks with one column per time, which
consumers take in chunks of ``_BLOCK_COLUMNS`` columns to bound memory.

Shift identities are exact only at lattice times ``t = k * delta_tau``;
everything here therefore takes a ``snap`` flag: off-lattice times raise
:class:`OffLatticeTimeError` by default, or are rounded to the nearest
lattice point with one :class:`OffLatticeWarning` per call when ``snap=True``.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hardy import hardy_embed, hardy_part
from .spaces import GridSpec, Space, SpaceMismatchError, StateVector

__all__ = [
    "OffLatticeTimeError",
    "OffLatticeWarning",
    "lattice_index",
    "unitary_evolve",
    "toeplitz_step",
    "toeplitz_adjoint",
    "kernel_witness",
]

# Relative slack when deciding whether a time sits on the dual lattice.
_LATTICE_RTOL = 1e-9
# Columns per block of lattice times (see _column_chunks).
_BLOCK_COLUMNS = 256


class OffLatticeTimeError(ValueError):
    """A time was not a multiple of delta_tau and snapping was not allowed;
    ``index`` is the offending entry's flat position in an array of times."""

    index: int | None = None


class OffLatticeWarning(UserWarning):
    """A time was silently rounded to the nearest dual-lattice point."""


def _first(t: np.ndarray, mask: np.ndarray) -> tuple[int, str]:
    """Flat position and label of the first entry of ``t`` where ``mask`` holds."""
    i = int(np.flatnonzero(mask)[0])
    return i, f"{f't[{i}]' if t.ndim else 't'} = {float(t.flat[i])}"


def lattice_index(grid: GridSpec, t, snap: bool = False):
    """Convert times to their dual-lattice indices ``k`` with ``t = k*delta_tau``.

    A scalar ``t`` gives an ``int``; an array gives an int64 array of the
    same shape.  Rounding is half to even, as Python's ``round``.  Raises
    :class:`OffLatticeTimeError` naming the first off-lattice time unless
    ``snap=True``, in which case the nearest indices are used and one
    :class:`OffLatticeWarning` per call names how many times moved and the
    first one's requested and used value.  A time whose index is not finite
    or does not fit in int64 raises :class:`OffLatticeTimeError` whatever
    ``snap`` says.
    """
    t, dt = np.asarray(t, dtype=np.float64), grid.delta_tau
    with np.errstate(all="ignore"):  # a huge t overflows to inf: no index
        ratio = t / dt
        k = np.rint(ratio)
        moved = np.abs(ratio - k) > _LATTICE_RTOL * np.maximum(1.0, np.abs(ratio))
    for bad, what in (
        (~(np.abs(k) < 2.0**63), f"has no dual-lattice index (delta_tau = {dt})"),
        (moved & (not snap), f"is not on the dual lattice (delta_tau = {dt}); "
         "pass snap=True to round"),
    ):
        if bad.any():
            i, label = _first(t, bad)
            exc = OffLatticeTimeError(f"{label} {what}")
            exc.index = i if t.ndim else None
            raise exc
    if moved.any():
        i, label = _first(t, moved)
        count = f" ({np.count_nonzero(moved)} of {t.size} moved)" if t.ndim else ""
        message = f"{label} snapped to lattice point {float(k.flat[i]) * dt}{count}"
        warnings.warn(message, OffLatticeWarning, stacklevel=3)
    return int(k) if k.ndim == 0 else k.astype(np.int64)


def unitary_evolve(f: StateVector, t: float) -> StateVector:
    """Apply the evolution group: multiply bin ``j`` by ``exp(-i sigma_j t)``.

    Accepts any space tag and arbitrary real ``t``; norm-preserving, with the
    exact group law ``u(t)u(s) = u(t+s)``.  The positive Hardy subspace is
    not invariant under the group (forward evolution shifts its time profile
    across the cut), so HARDY_PLUS input is embedded first and the result
    carries the FULL_LINE tag; compress with :func:`toeplitz_step` /
    :func:`toeplitz_adjoint` to stay inside the subspace.
    """
    if f.space is Space.HARDY_PLUS:
        f = hardy_embed(f)
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


def _toeplitz_block(h: StateVector, ks) -> np.ndarray:
    """Amplitudes of ``T(k delta_tau) h`` (HARDY_PLUS ``h``), one column per
    lattice index ``k``: ``h[j + k * k_dim]`` in row ``j``, zero outside the
    window, so ``-k`` gives ``T*(k delta_tau) h``.  One gather from the windows
    of the zero-padded samples, ``|k|`` capped at the bin count (all zeros)."""
    a, n = h.amplitudes, h.amplitudes.size
    bins = n // h.grid.k_dim
    e = np.clip(np.asarray(ks), -bins, bins) * h.grid.k_dim
    return sliding_window_view(np.pad(a, n), n)[n + e].T


def _semigroup_index(grid: GridSpec, t, snap: bool):
    k = lattice_index(grid, t, snap=snap)
    negative = np.asarray(k) < 0
    if negative.any():
        _, label = _first(np.asarray(t, dtype=np.float64), negative)
        raise ValueError(f"semigroup times must be >= 0, got {label}")
    return k


def _hardy_shift(f: StateVector, t: float, snap: bool, sign: int) -> StateVector:
    if f.space is not Space.HARDY_PLUS:
        raise SpaceMismatchError("Toeplitz operators act on HARDY_PLUS states")
    k = sign * _semigroup_index(f.grid, t, snap)
    return StateVector(f.grid, Space.HARDY_PLUS, _toeplitz_block(f, [k])[:, 0])


def toeplitz_step(f: StateVector, t: float, snap: bool = False) -> StateVector:
    """Compression of forward evolution to the positive Hardy subspace.

    On the lattice ``t = k * delta_tau`` this is the truncated left shift of
    the stored time samples: ``out[j] = f[j + k]``, zero-padded at the far
    edge.  It equals the spectral route (embed, multiply by the evolution
    phase, project back) to machine precision.  Contractive, with the exact
    semigroup law; annihilates every state once ``t`` reaches half the time
    window.
    """
    return _hardy_shift(f, t, snap, 1)


def toeplitz_adjoint(f: StateVector, t: float, snap: bool = False) -> StateVector:
    """Adjoint of :func:`toeplitz_step`: backward evolution restricted back.

    The zero-padded right shift of the time samples, ``out[j + k] = f[j]``,
    which drops whatever crosses the far window edge.  So it is isometric
    exactly on states with no power near that edge (guard-banded states).
    """
    return _hardy_shift(f, t, snap, -1)


def kernel_witness(
    grid: GridSpec,
    mu: complex,
    t0: float,
    v: np.ndarray | None = None,
    snap: bool = True,
) -> StateVector:
    """State annihilated by the compressed semigroup once ``t >= t0``.

    Samples

    .. math:: f(\\sigma) = \\frac{1}{\\sqrt{2\\pi}}\\,
              \\frac{1 - e^{i\\sigma t_0} e^{-i\\mu t_0}}{\\sigma - \\mu}\\, v,

    whose time profile is ``-i e^{-i mu tau}`` on ``[0, t0)`` and zero
    elsewhere, then returns its positive-Hardy component.  The ``1/sqrt(2
    pi)`` factor makes the profile's prefactor a unit modulus constant, so
    for ``mu = -i, t0 = 1`` the squared norm is the time-domain integral
    ``(1 - e^{-2})/2`` up to truncation error.

    ``t0`` must sit on the dual lattice for the decay statements to converge
    under grid refinement; by default it is snapped there (with a warning
    when it moves).
    """
    mu = complex(mu)
    if not (mu.imag < 0):
        raise ValueError(f"witness pole {mu} must lie in the open lower half-plane")
    if not (t0 > 0):
        raise ValueError(f"witness support length t0 must be positive, got {t0}")
    k0 = lattice_index(grid, t0, snap=snap)
    if k0 < 1:
        raise ValueError(f"t0 = {t0} is below the lattice resolution")
    t0 = k0 * grid.delta_tau
    if v is None:
        v = np.zeros(grid.k_dim, dtype=np.complex128)
        v[0] = 1.0
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (grid.k_dim,):
        raise ValueError(f"fiber vector must have shape ({grid.k_dim},), got {v.shape}")
    sigma = grid.sigma()
    scalar = (1.0 - np.exp(1j * sigma * t0) * np.exp(-1j * mu * t0)) / (sigma - mu)
    scalar /= np.sqrt(2.0 * np.pi)
    full = StateVector(
        grid, Space.FULL_LINE, (scalar[:, None] * v[None, :]).reshape(-1)
    )
    return hardy_part(full)
