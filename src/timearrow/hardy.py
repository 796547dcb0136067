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

and the pair is exactly unitary (Parseval holds to machine precision).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import (
    GridSpec,
    Space,
    SpaceMismatchError,
    StateVector,
    _freeze,
    embed,
)

__all__ = [
    "TimeProfile",
    "to_time",
    "hardy_project",
    "hardy_part",
    "hardy_embed",
    "hardy_project_oracle",
    "rational_hardy",
    "guard_band_leakage",
]


def _phase_factors(grid: GridSpec):
    n = grid.n_sigma
    alpha = (1.0 - n) / 2.0
    w = np.arange(n, dtype=np.complex128)
    np.multiply(-2j * np.pi * alpha, w, out=w)
    w /= n
    np.exp(w, out=w)
    s = np.exp(-2j * np.pi * alpha * alpha / n)
    c = grid.delta_sigma / np.sqrt(2.0 * np.pi)
    return w, s, c


# The transforms below hold one (n_sigma, m) array: the phased input, the FFT
# written over it and the phases applied in place.  The phases stay the left
# operand (w * x, not x *= w): numpy's complex loops may round the two orders
# differently, and this order gives the bits of the out-of-place form.


def _sigma_to_tau(grid: GridSpec, f: np.ndarray, out=None) -> np.ndarray:
    """(n_sigma, m) energy samples -> (n_sigma, m) time samples, written
    to ``out`` (a new array by default; ``f`` itself is allowed)."""
    w, s, c = _phase_factors(grid)
    w = w[:, None]
    out = np.multiply(w, f, out=out)
    np.fft.fft(out, axis=0, out=out)
    np.multiply(w, out, out=out)
    return np.multiply(c * s, out, out=out)


def _tau_to_sigma(grid: GridSpec, g: np.ndarray, out=None) -> np.ndarray:
    """Inverse of :func:`_sigma_to_tau`, with the same ``out`` rule."""
    w, s, c = _phase_factors(grid)
    w = np.conj(w, out=w)[:, None]
    out = np.multiply(w, g, out=out)
    np.fft.ifft(out, axis=0, out=out)
    np.multiply(w, out, out=out)
    return np.multiply(1.0 / (c * s), out, out=out)


@dataclass(frozen=True)
class TimeProfile:
    """Samples of a state's transform on the dual time lattice.

    ``samples`` is the C-order flattening of an ``(n_sigma, k_dim)`` array
    over the bins ``tau_k = (k + 1/2 - n_sigma/2) * delta_tau``.  The squared
    norm ``sum(|samples|^2) * delta_tau`` equals the squared norm of the
    originating state (Parseval).
    """

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        a = _freeze(self, "samples")
        expected = self.grid.n_sigma * self.grid.k_dim
        if a.shape != (expected,):
            raise ValueError(
                f"sample length {a.shape} does not match grid (expected ({expected},))"
            )

    def fibered(self) -> np.ndarray:
        return self.samples.reshape(-1, self.grid.k_dim)

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.delta_tau)
        )

    def tau(self) -> np.ndarray:
        return self.grid.tau()


def to_time(f: StateVector) -> TimeProfile:
    """Unitary transform of a full-line state onto the dual time lattice."""
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("to_time acts on FULL_LINE states")
    g = _sigma_to_tau(f.grid, f.fibered())
    return TimeProfile(f.grid, g.reshape(-1))


def hardy_project(f: StateVector, half: str = "plus") -> StateVector:
    """Orthogonal projection onto the positive or negative Hardy subspace.

    Zeroes the opposite half of the time profile and transforms back.  In the
    discrete model this is an exact orthogonal projection: idempotent,
    Hermitian, and ``plus + minus = identity`` to machine precision.

    Parameters
    ----------
    f : StateVector
        FULL_LINE state.
    half : {"plus", "minus"}
        Which subspace to project onto; "plus" keeps time support ``tau >= 0``.
    """
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("hardy_project acts on FULL_LINE states")
    if half not in ("plus", "minus"):
        raise ValueError(f"half must be 'plus' or 'minus', got {half!r}")
    g = _sigma_to_tau(f.grid, f.fibered())
    half_n = f.grid.n_sigma // 2
    if half == "plus":
        g[:half_n, :] = 0.0
    else:
        g[half_n:, :] = 0.0
    out = _tau_to_sigma(f.grid, g, out=g)
    return StateVector(f.grid, Space.FULL_LINE, out.reshape(-1))


def _hardy_scale(grid: GridSpec) -> float:
    return float(np.sqrt(grid.delta_tau / grid.delta_sigma))


def hardy_part(f: StateVector) -> StateVector:
    """Coordinates of the positive-Hardy component of a full-line state.

    Returns the HARDY_PLUS state whose embedding back into the full line is
    ``hardy_project(f, "plus")``.  Composition the other way,
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


def rational_hardy(
    grid: GridSpec,
    poles: list[tuple[complex, int]],
    v: np.ndarray | None = None,
) -> StateVector:
    """Sample a rational function with all poles in the lower half-plane.

    Returns the FULL_LINE state with amplitudes ``sum_p v / (sigma - mu_p)^
    order_p``.  Such functions lie in the positive Hardy subspace up to
    truncation error that shrinks as the energy cutoff grows.

    Parameters
    ----------
    grid : GridSpec
    poles : list of (mu, order)
        Pole positions (``Im mu < 0`` required) and orders (1 or 2).
    v : array of shape (k_dim,), optional
        Fiber vector multiplying every pole term; defaults to the first
        fiber basis vector.
    """
    if not poles:
        raise ValueError("poles must be a non-empty list of (mu, order)")
    if v is None:
        v = np.zeros(grid.k_dim, dtype=np.complex128)
        v[0] = 1.0
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (grid.k_dim,):
        raise ValueError(f"fiber vector must have shape ({grid.k_dim},), got {v.shape}")
    sigma = grid.sigma()
    scalar = np.zeros(grid.n_sigma, dtype=np.complex128)
    for mu, order in poles:
        mu = complex(mu)
        if not (mu.imag < 0):
            raise ValueError(f"pole {mu} is not in the open lower half-plane")
        if order not in (1, 2):
            raise ValueError(f"pole order must be 1 or 2, got {order}")
        scalar += 1.0 / (sigma - mu) ** order
    amps = scalar[:, None] * v[None, :]
    return StateVector(grid, Space.FULL_LINE, amps.reshape(-1))


def guard_band_leakage(x) -> float:
    """Fraction of time-profile power in the outer 10% of the time window.

    Shift-based identities are exact only up to circular wrap-around, whose
    size is controlled by how much of the profile sits near the window edges
    ``|tau| >= 0.9 * t_window/2``.  Test states are required to keep this
    fraction below 1e-8.

    Accepts a :class:`TimeProfile` or a StateVector of any space tag.  A
    HARDY_PLUS state is read as it stands: its amplitudes are its ``tau >= 0``
    samples times one factor, which cancels in the fraction.  Other states
    are transformed (embedded first if half-line).  Returns 0 for the zero
    state.
    """
    if not isinstance(x, (StateVector, TimeProfile)):
        raise TypeError("expected a StateVector or TimeProfile")
    if isinstance(x, TimeProfile) or x.space is Space.HARDY_PLUS:
        samples = x.fibered()
    else:  # a half-line state is embedded first
        samples = to_time(x if x.space is Space.FULL_LINE else embed(x)).fibered()
    return _power_leakage(x.grid, np.sum(np.abs(samples) ** 2, axis=1))


def _power_leakage(grid: GridSpec, power: np.ndarray) -> float:
    """The leakage of a power per time bin, on all bins or the ``tau >= 0`` half."""
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    outer = np.abs(grid.tau()[-power.size:]) >= 0.9 * (grid.t_window / 2.0)
    return float(np.sum(power[outer]) / total)
