"""Discretized function spaces on a symmetric energy interval.

The model truncates the energy line to ``(-sigma_max, sigma_max)`` and samples
it on ``n_sigma`` bin centers offset by half a bin, so no bin sits at zero
energy.  Three spaces share this grid:

* ``FULL_LINE`` -- amplitudes are samples on all energy bins,
* ``HALF_LINE_POS`` -- samples on the positive-energy bins only,
* ``HARDY_PLUS`` -- the discrete positive Hardy subspace, stored in its
  time-lattice coordinates (see :mod:`timearrow.hardy`).

All three use the same rectangle-rule quadrature weight ``delta_sigma``; the
Hardy coordinates are scaled so that this single weight is exact for every
tag.  A fiber dimension ``k_dim`` models vector-valued amplitudes; fibers are
stored interleaved, i.e. a state is the C-order flattening of an
``(n_bins, k_dim)`` array.  So an ``N x m`` block of states is an ``n_bins x
(k_dim m)`` block (a view), and a :class:`LinOp` that acts on every fibre
alike stores only the block ``A`` of ``kron(A, I_k)``, applied in one product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Space",
    "GridSpec",
    "StateVector",
    "LinOp",
    "SpaceMismatchError",
    "make_grid",
    "make_state",
    "zero_state",
    "inner",
    "norm",
    "embed",
    "restrict",
    "identity_op",
]

# Relative Frobenius tolerance of the Hermitian check.
_HERMITIAN_RTOL = 1e-12


class Space(Enum):
    """Tag naming which discretized space a state or operator leg lives in."""

    FULL_LINE = "full_line"
    HALF_LINE_POS = "half_line_pos"
    HARDY_PLUS = "hardy_plus"


class SpaceMismatchError(ValueError):
    """Raised when an operation would silently mix space tags or grids."""


@dataclass(frozen=True)
class GridSpec:
    """Shared discretization of the energy interval and its dual time lattice.

    Parameters
    ----------
    n_sigma : int
        Number of energy bins; a power of two, at least 8.
    sigma_max : float
        Half-width of the energy interval.
    k_dim : int
        Fiber (auxiliary Hilbert space) dimension.
    delta_sigma : float
        Energy bin width, ``2 * sigma_max / n_sigma``.
    t_window : float
        Total width of the dual time lattice, ``2 * pi / delta_sigma``.
    delta_tau : float
        Time bin width, ``t_window / n_sigma``.

    Notes
    -----
    Energy bin centers are ``sigma_j = (j + 1/2 - n_sigma/2) * delta_sigma``
    and time bin centers are ``tau_k = (k + 1/2 - n_sigma/2) * delta_tau``;
    both lattices avoid the origin, so the positive half of each is exactly
    half the bins.
    """

    n_sigma: int
    sigma_max: float
    k_dim: int
    delta_sigma: float
    t_window: float
    delta_tau: float

    def sigma(self) -> np.ndarray:
        """Energy bin centers over the full interval."""
        j = np.arange(self.n_sigma)
        return (j + 0.5 - self.n_sigma / 2) * self.delta_sigma

    def sigma_pos(self) -> np.ndarray:
        """Energy bin centers restricted to the positive half-line."""
        return self.sigma()[self.n_sigma // 2 :]

    def tau(self) -> np.ndarray:
        """Time bin centers over the full window ``(-t_window/2, t_window/2)``."""
        k = np.arange(self.n_sigma)
        return (k + 0.5 - self.n_sigma / 2) * self.delta_tau

    def tau_pos(self) -> np.ndarray:
        """Time bin centers on the positive half of the window."""
        return self.tau()[self.n_sigma // 2 :]

    def n_half(self) -> int:
        return self.n_sigma // 2

    def dim(self, space: Space) -> int:
        """Flat amplitude length for a state tagged ``space`` on this grid."""
        bins = self.n_sigma if space is Space.FULL_LINE else self.n_sigma // 2
        return bins * self.k_dim


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def make_grid(n_sigma: int, sigma_max: float, k_dim: int = 1) -> GridSpec:
    """Build a :class:`GridSpec`, validating the discretization parameters.

    Parameters
    ----------
    n_sigma : int
        Must be a power of two and at least 8.
    sigma_max : float
        Must be positive and finite.
    k_dim : int
        Must be at least 1.
    """
    n_sigma, k_dim = _integer("n_sigma", n_sigma), _integer("k_dim", k_dim)
    if n_sigma < 8 or (n_sigma & (n_sigma - 1)) != 0:
        raise ValueError(f"n_sigma must be a power of two >= 8, got {n_sigma}")
    if not (0 < sigma_max < np.inf):
        raise ValueError(f"sigma_max must be positive and finite, got {sigma_max}")
    if k_dim < 1:
        raise ValueError(f"k_dim must be >= 1, got {k_dim}")
    delta_sigma = 2.0 * sigma_max / n_sigma
    t_window = 2.0 * np.pi / delta_sigma
    return GridSpec(n_sigma=n_sigma, sigma_max=float(sigma_max), k_dim=k_dim,
                    delta_sigma=delta_sigma, t_window=t_window,
                    delta_tau=t_window / n_sigma)


def _freeze(obj, field: str, dtype=np.complex128) -> np.ndarray:
    """Store ``obj.field`` (a frozen dataclass) as a read-only contiguous array."""
    a = np.ascontiguousarray(getattr(obj, field), dtype=dtype)
    a.setflags(write=False)
    object.__setattr__(obj, field, a)
    return a


@dataclass(frozen=True)
class StateVector:
    """Immutable amplitude vector tagged with its grid and space.

    ``amplitudes`` has length ``grid.dim(space)``.  The squared norm is
    ``sum(|amplitudes|^2) * grid.delta_sigma`` for every tag.
    """

    grid: GridSpec
    space: Space
    amplitudes: np.ndarray

    def __post_init__(self):
        _freeze(self, "amplitudes")
        expected = self.grid.dim(self.space)
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"amplitude length {self.amplitudes.shape} does not match "
                f"{self.space.value} on this grid (expected ({expected},))"
            )

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.delta_sigma)
        )

    def fibered(self) -> np.ndarray:
        """View of the amplitudes as an ``(n_bins, k_dim)`` array."""
        return self.amplitudes.reshape(-1, self.grid.k_dim)

    def _check_compatible(self, other: "StateVector") -> None:
        if self.grid != other.grid or self.space is not other.space:
            raise SpaceMismatchError(
                f"cannot combine {self.space.value} with {other.space.value} "
                f"or states from different grids"
            )

    def __add__(self, other: "StateVector") -> "StateVector":
        self._check_compatible(other)
        return StateVector(self.grid, self.space, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "StateVector") -> "StateVector":
        self._check_compatible(other)
        return StateVector(self.grid, self.space, self.amplitudes - other.amplitudes)

    def __mul__(self, scalar: complex) -> "StateVector":
        return StateVector(self.grid, self.space, self.amplitudes * scalar)

    __rmul__ = __mul__


def make_state(grid: GridSpec, space: Space, amplitudes: np.ndarray) -> StateVector:
    """Construct a :class:`StateVector` (convenience wrapper)."""
    return StateVector(grid=grid, space=space, amplitudes=np.asarray(amplitudes))


def zero_state(grid: GridSpec, space: Space) -> StateVector:
    return StateVector(grid, space, np.zeros(grid.dim(space), dtype=np.complex128))


def inner(f: StateVector, g: StateVector) -> complex:
    """Quadrature inner product, conjugate-linear in the first argument."""
    f._check_compatible(g)
    return complex(np.vdot(f.amplitudes, g.amplitudes) * f.grid.delta_sigma)


def norm(f: StateVector) -> float:
    return f.norm()


def _column_norms(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """The norm of each column of a block of amplitudes."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=0) * grid.delta_sigma)


def embed(psi: StateVector) -> StateVector:
    """Isometric inclusion of the positive half-line into the full line."""
    if psi.space is not Space.HALF_LINE_POS:
        raise SpaceMismatchError("embed acts on HALF_LINE_POS states")
    g = psi.grid
    a = np.zeros((g.n_sigma, g.k_dim), dtype=np.complex128)
    a[g.n_sigma // 2 :, :] = psi.fibered()
    return StateVector(g, Space.FULL_LINE, a.reshape(-1))


def restrict(f: StateVector) -> StateVector:
    """Adjoint of :func:`embed`: drop the negative-energy bins."""
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("restrict acts on FULL_LINE states")
    g = f.grid
    return StateVector(
        g, Space.HALF_LINE_POS, f.fibered()[g.n_sigma // 2 :, :].reshape(-1)
    )


@dataclass(frozen=True, init=False)
class LinOp:
    """Linear operator between tagged spaces on one grid: dense or diagonal.

    ``matrix`` is the dense ``(dim(codomain), dim(domain))`` array or, with
    matching legs, a 1-d array: a diagonal, stored as a vector.  Either may
    be stored per bin (``dim // k_dim``; see the module note); the dense
    ``matrix`` is then built on request, as for a diagonal.  Because every
    space tag uses the same quadrature weight, the adjoint with respect to
    the weighted inner products is the plain conjugate transpose.
    ``hermitian=True`` is checked once, here (``|m - m^H| <= 1e-12 max(|m|,
    1)``, Frobenius, so O(N) real entries for a diagonal; ``ValueError``
    otherwise); functions that need a Hermitian operator require the flag
    instead of rechecking.  Internally the operator also acts on an ``N x
    m`` block of amplitudes, one state per column, once the caller has
    checked the space tags.
    """

    grid: GridSpec
    domain: Space
    codomain: Space
    _entries: np.ndarray
    hermitian: bool = False

    def __init__(self, grid, domain, codomain, matrix, hermitian=False):
        values = (grid, domain, codomain, matrix, hermitian)
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        m = _freeze(self, "_entries")
        expected = (self.grid.dim(self.codomain), self.grid.dim(self.domain))
        if m.ndim == 1:
            if self.domain is not self.codomain:
                raise ValueError("a diagonal operator needs matching legs")
            expected = expected[:1]
        binned = tuple(d // self.grid.k_dim for d in expected)
        if m.shape not in (expected, binned):
            raise ValueError(f"matrix shape {m.shape}, expected {expected} or {binned}")
        if self.hermitian:
            if self.domain is not self.codomain:
                raise ValueError("hermitian operator needs matching legs")
            scale = np.linalg.norm(m)
            dev = np.linalg.norm(m - m.conj().T)
            if dev > _HERMITIAN_RTOL * max(scale, 1.0):
                raise ValueError(
                    f"a matrix declared hermitian must be Hermitian: deviation "
                    f"{dev:.3e} (relative to norm {scale:.3e})"
                )

    @property
    def _fibres(self) -> int:
        """Fibres each stored entry acts on: ``k_dim`` if stored per bin, else 1."""
        return self.grid.dim(self.domain) // self._entries.shape[-1]

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix; built on each request for a diagonal or per bin."""
        m = self._entries if self._entries.ndim == 2 else np.diag(self._entries)
        return m if self._fibres == 1 else np.kron(m, np.eye(self.grid.k_dim))

    def _act(self, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Amplitudes of the image of a vector, or of each column of a block,
        under the operator or (``adjoint``, dense only) its adjoint as ``(a^H
        m)^H``, so no conjugate of ``m`` is copied.  Entries stored per bin act
        on the ``n_bins x (k_dim m)`` view of a block of ``N`` rows."""
        m = self._entries
        f = a.shape[0] // m.shape[0 if adjoint else -1]
        b = a if f == 1 else a.reshape(a.shape[0] // f, -1)
        if adjoint:
            out = (b.conj().T @ m).conj().T
        else:
            out = m @ b if m.ndim == 2 else (m * b.T).T
        return out if f == 1 else out.reshape(-1, *a.shape[1:])

    def apply(self, f: StateVector) -> StateVector:
        if f.grid != self.grid or f.space is not self.domain:
            raise SpaceMismatchError(
                f"operator domain {self.domain.value} does not accept a "
                f"{f.space.value} state (or grids differ)"
            )
        return StateVector(self.grid, self.codomain, self._act(f.amplitudes))

    def __matmul__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented
        if self.grid != other.grid or other.codomain is not self.domain:
            raise SpaceMismatchError(
                f"cannot compose {self.domain.value} <- {other.codomain.value}"
            )
        # stored sizes differ: the right factor is lifted, and a left factor
        # stored per bin acts on it by the fibre rule
        b = other._entries if self._fibres == other._fibres else other.matrix
        # a diagonal on the right scales the columns of the left factor
        m = self._entries * b if b.ndim == 1 else self._act(b)
        return LinOp(self.grid, other.domain, self.codomain, m)

    @classmethod
    def _hermitian_by_construction(cls, grid: GridSpec, space: Space, matrix):
        """Declared hermitian without the check: only for functions whose
        output is exactly Hermitian, such as ``0.5 * (m + m^H)``."""
        op = cls(grid, space, space, matrix)
        object.__setattr__(op, "hermitian", True)
        return op


def identity_op(grid: GridSpec, space: Space) -> LinOp:
    """The identity on ``space``, stored as a diagonal of ones."""
    return LinOp._hermitian_by_construction(grid, space, np.ones(grid.dim(space)))
