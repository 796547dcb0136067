"""Hardy-space structure of the discrete energy line.

The positive Hardy subspace is modeled through the unitary transform between
energy samples and samples on the dual time lattice,

.. math:: g(\\tau_k) = \\frac{\\Delta\\sigma}{\\sqrt{2\\pi}}
          \\sum_j e^{-i \\sigma_j \\tau_k} f(\\sigma_j),

whose inverse uses the kernel ``e^{+i sigma tau}``.  A state belongs to the
discrete positive Hardy subspace exactly when its time profile is supported
on the bins with ``tau >= 0`` — half the dual lattice.  ``HARDY_PLUS`` states
store those positive-time samples scaled by ``sqrt(delta_tau/delta_sigma)``,
which makes the uniform quadrature weight ``delta_sigma`` exact for them and
turns adjoints into plain conjugate transposes.

Both lattices are offset by half a bin, so the transform is realized by an
offset DFT: with ``alpha = (1 - N)/2`` and ``w_m = exp(-2 pi i alpha m / N)``,

    g = c * s * w ⊙ FFT(w ⊙ f),      c = delta_sigma/sqrt(2 pi),
                                      s = exp(-2 pi i alpha^2 / N),

and the pair is exactly unitary (Parseval holds to machine precision).  No
phase angle exceeds pi: ``w_m = (-1)^m exp(-i pi m / N)`` and, ``N/2`` being
even, ``s = -exp(-i pi / (2N))``.  The pair stays private (``_sigma_to_tau``
and ``_tau_to_sigma``, on blocks of samples): public functions take and return
states, and read a time profile only through them (:func:`guard_band_leakage`).
"""

from __future__ import annotations

import numpy as np

from .spaces import (
    GridSpec,
    Space,
    SpaceMismatchError,
    StateVector,
    _half_bin,
    embed,
)

__all__ = [
    "hardy_project",
    "hardy_part",
    "hardy_embed",
    "hardy_project_oracle",
    "rational_hardy",
    "guard_band_leakage",
]


def _phase_factors(grid: GridSpec):
    w = _half_bin(grid.n_sigma, np.arange(grid.n_sigma, dtype=np.complex128))
    np.negative(w[1::2], out=w[1::2])  # w_m = (-1)^m exp(-i pi m / n)
    return w, -_half_bin(grid.n_sigma, 0.5), grid.delta_sigma / np.sqrt(2.0 * np.pi)


# The transforms below hold one (n_sigma, m) array: the phased input, the FFT
# written over it and the phases applied in place.  The phases stay the left
# operand (w * x, not x *= w): numpy's complex loops may round the two orders
# differently, and this order gives the bits of the out-of-place form.


def _sigma_to_tau(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """(n_sigma, m) energy samples -> (n_sigma, m) time samples, a new array."""
    w, s, c = _phase_factors(grid)
    w = w[:, None]
    out = np.multiply(w, f)
    np.fft.fft(out, axis=0, out=out)
    np.multiply(w, out, out=out)
    return np.multiply(c * s, out, out=out)


def _tau_to_sigma(grid: GridSpec, g: np.ndarray, out=None) -> np.ndarray:
    """Inverse of :func:`_sigma_to_tau`, into ``out`` if given (``g`` may be it)."""
    w, s, c = _phase_factors(grid)
    w = np.conj(w, out=w)[:, None]
    out = np.multiply(w, g, out=out)
    np.fft.ifft(out, axis=0, out=out)
    np.multiply(w, out, out=out)
    return np.multiply(1.0 / (c * s), out, out=out)


def hardy_project(f: StateVector) -> StateVector:
    """Orthogonal projection of a FULL_LINE state onto the positive Hardy subspace.

    Zeroes the ``tau < 0`` half of the time profile and transforms back.  In
    the discrete model this is an exact orthogonal projection: idempotent and
    Hermitian to machine precision, with ``f - hardy_project(f)`` the
    projection onto the negative Hardy subspace.
    """
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("hardy_project acts on FULL_LINE states")
    g = _sigma_to_tau(f.grid, f.fibered())
    g[: f.grid.n_sigma // 2, :] = 0.0
    out = _tau_to_sigma(f.grid, g, out=g)
    return StateVector(f.grid, Space.FULL_LINE, out.reshape(-1))


def _hardy_scale(grid: GridSpec) -> float:
    return float(np.sqrt(grid.delta_tau / grid.delta_sigma))


def hardy_part(f: StateVector) -> StateVector:
    """Coordinates of the positive-Hardy component of a full-line state.

    Returns the HARDY_PLUS state whose embedding back into the full line is
    ``hardy_project(f)``.  Composition the other way,
    ``hardy_part(hardy_embed(h))``, is the identity.
    """
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("hardy_part acts on FULL_LINE states")
    g = _sigma_to_tau(f.grid, f.fibered())
    half_n = f.grid.n_sigma // 2
    b = g[half_n:, :] * _hardy_scale(f.grid)
    return StateVector(f.grid, Space.HARDY_PLUS, b.reshape(-1))


def hardy_embed(h: StateVector) -> StateVector:
    """Isometric inclusion of a HARDY_PLUS state into the full line."""
    if h.space is not Space.HARDY_PLUS:
        raise SpaceMismatchError("hardy_embed acts on HARDY_PLUS states")
    grid = h.grid
    half_n = grid.n_sigma // 2
    g = np.zeros((grid.n_sigma, grid.k_dim), dtype=np.complex128)
    g[half_n:, :] = h.fibered() / _hardy_scale(grid)
    out = _tau_to_sigma(grid, g, out=g)
    return StateVector(grid, Space.FULL_LINE, out.reshape(-1))


def hardy_project_oracle(f: StateVector) -> StateVector:
    """Positive-Hardy projection by direct principal-value quadrature.

    Independent O(N^2) cross-check of :func:`hardy_project`: computes
    ``P_plus f = f/2 + (i/2) H f`` with the Hilbert transform evaluated by a
    midpoint rule that skips the singular cell and restores its principal
    value through the derivative correction

        H_j = (delta_sigma/pi) * (sum_{j' != j} f_{j'}/(sigma_j - sigma_{j'})
                                   - f'(sigma_j)).

    Agreement with the FFT route is limited by the O(delta_sigma^2) accuracy
    of the rule and by how much of the state's time profile sits at the
    tau = 0 cut; smooth states whose profile clears the cut agree to ~1e-3 on
    mid-sized grids.
    """
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("hardy_project_oracle acts on FULL_LINE states")
    grid = f.grid
    sigma = grid.sigma()
    diff = np.subtract.outer(sigma, sigma)
    np.fill_diagonal(diff, 1.0)
    kernel = 1.0 / diff
    np.fill_diagonal(kernel, 0.0)
    a = f.fibered()
    slope = np.gradient(a, grid.delta_sigma, axis=0)
    hilbert = (grid.delta_sigma / np.pi) * (kernel @ a - slope)
    out = 0.5 * a + 0.5j * hilbert
    return StateVector(grid, Space.FULL_LINE, out.reshape(-1))


def rational_hardy(grid: GridSpec, poles: list[tuple[complex, int]]) -> StateVector:
    """Sample a rational function with all poles in the lower half-plane.

    Returns the FULL_LINE state with amplitudes ``sum_p 1 / (sigma - mu_p)^
    order_p`` on fibre 0.  Such functions lie in the positive Hardy subspace
    up to truncation error that shrinks as the energy cutoff grows.

    Parameters
    ----------
    grid : GridSpec
    poles : list of (mu, order)
        Pole positions (``Im mu < 0`` required) and orders (1 or 2).
    """
    if not poles:
        raise ValueError("poles must be a non-empty list of (mu, order)")
    sigma = grid.sigma()
    scalar = np.zeros(grid.n_sigma, dtype=np.complex128)
    for mu, order in poles:
        mu = complex(mu)
        if not (mu.imag < 0):
            raise ValueError(f"pole {mu} is not in the open lower half-plane")
        if order not in (1, 2):
            raise ValueError(f"pole order must be 1 or 2, got {order}")
        scalar += 1.0 / (sigma - mu) ** order
    amps = np.pad(scalar[:, None], [(0, 0), (0, grid.k_dim - 1)])
    return StateVector(grid, Space.FULL_LINE, amps.reshape(-1))


def guard_band_leakage(x: StateVector) -> float:
    """Fraction of time-profile power in the outer 10% of the time window.

    Shift-based identities are exact only up to circular wrap-around, whose
    size is controlled by how much of the profile sits near the window edges
    ``|tau| >= 0.9 * t_window/2``.  Test states are required to keep this
    fraction below 1e-8.

    Accepts a StateVector of any space tag.  A HARDY_PLUS state is read as
    it stands: its amplitudes are its ``tau >= 0`` samples times one factor,
    which cancels in the fraction.  Other states are transformed (embedded
    first if half-line).  Returns 0 for the zero state.
    """
    if not isinstance(x, StateVector):
        raise TypeError("expected a StateVector")
    if x.space is Space.HARDY_PLUS:
        samples = x.fibered()
    else:  # a half-line state is embedded first
        f = x if x.space is Space.FULL_LINE else embed(x)
        samples = _sigma_to_tau(f.grid, f.fibered())
    return _power_leakage(x.grid, np.sum(np.abs(samples) ** 2, axis=1))


def _power_leakage(grid: GridSpec, power: np.ndarray) -> float:
    """The leakage of a power per time bin, on all bins or the ``tau >= 0`` half."""
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    outer = np.abs(grid.tau(grid.n_sigma - power.size)) >= 0.9 * (grid.t_window / 2.0)
    return float(np.sum(power[outer]) / total)
