"""Square root of the Lyapunov operator and the irreversible semigroup.

The positive square root ``lam`` of the Lyapunov operator intertwines the
unitary half-line evolution with a contraction semigroup ``Z(t)``: pushing a
state through ``lam`` moves it to the "irreversible" picture in which
dynamics only runs forward.  The bridge is the unitary polar factor ``R`` of
the forward map: ``omega = R lam``, and ``Z(t) = R* T_u(t) R`` is the
unitary transport of the truncated-shift semigroup.

At ``t = k * delta_tau`` the shift ``T_u(t)`` moves time sample ``j + k``
into sample ``j``.  Fibres are interleaved (bin ``j`` owns rows
``j*k_dim ... (j+1)*k_dim - 1`` of ``R``), so with ``e = k * k_dim`` and
``N`` rows, ``Z(t) = R[:N-e]^H R[e:]``; :func:`z_evolve` and
:func:`z_adjoint` apply the slices of :mod:`timearrow.evolution` between
the two legs of ``R``.

Conditioning note: the forward map's smallest singular values sink below
machine epsilon (its continuum limit has no bounded inverse), so nothing
here ever inverts ``lam`` or forms an explicit ``M^(-1/2)``.  ``R`` comes
from the SVD of the forward map, and :func:`build_model` derives the square
root from the *same* SVD, which keeps the polar identity ``R lam = omega``
at machine precision.  The standalone :func:`build_lambda` route through the
eigendecomposition of the Lyapunov operator agrees with it only to roughly
the square root of machine epsilon near the bottom of the spectrum —
squaring the map loses half the digits of its smallest singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import _semigroup_index, toeplitz_adjoint, toeplitz_step, unitary_evolve
from .lyapunov import build_omega
from .spaces import GridSpec, LinOp, Space, StateVector, norm

__all__ = [
    "IrreversibleModel",
    "build_lambda",
    "build_isometry",
    "build_model",
    "z_matrix",
    "z_evolve",
    "z_adjoint",
    "intertwining_residual",
]

# Eigenvalues this far below zero are treated as rounding noise and clipped;
# anything below -1e-10 means the input was not a nonnegative operator.
_CLIP_EPS = 1e-12
_NEGATIVE_EPS = 1e-10


def build_lambda(m_f: LinOp) -> LinOp:
    """Unique positive square root of a nonnegative Hermitian operator.

    ``m_f`` must be declared ``hermitian=True`` (checked when the
    :class:`LinOp` was built); an undeclared operator raises ``ValueError``
    whatever its matrix.  Computed through the Hermitian eigendecomposition;
    eigenvalues within ``1e-12`` of zero are clipped to zero before the
    square root, and anything below ``-1e-10`` raises.  The result is
    Hermitian, contractive whenever the input is, and injective up to the
    clip threshold (smallest retained eigenvalue is reported by the spectrum
    itself).
    """
    if not m_f.hermitian:
        raise ValueError("the Lyapunov operator must be a LinOp declared hermitian")
    m = m_f.matrix
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    if vals.min() < -_NEGATIVE_EPS:
        raise ValueError(
            f"operator has eigenvalue {vals.min():.3e} below -{_NEGATIVE_EPS:g}; "
            "not a nonnegative operator"
        )
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    root = 0.5 * (root + root.conj().T)
    return LinOp(m_f.grid, m_f.domain, m_f.codomain, root, hermitian=True)


def build_isometry(omega: LinOp, lam: LinOp) -> LinOp:
    """Unitary polar factor ``R`` with ``omega = R lam``.

    ``R = U V*`` from the SVD ``omega = U S V*`` — never by inversion of
    ``lam``, whose smallest eigenvalues are at rounding-noise scale.  ``R``
    is square unitary in the discrete model; the residual of ``R lam -
    omega`` is limited by how ``lam`` was obtained (see the module note).
    """
    if omega.grid != lam.grid or omega.domain is not lam.domain:
        raise ValueError("omega and lam must share a grid and domain")
    if lam.domain is not lam.codomain:
        raise ValueError("lam must be an endomorphism of the forward map's domain")
    u, _, vh = np.linalg.svd(omega.matrix)
    return LinOp(omega.grid, omega.domain, omega.codomain, u @ vh)


@dataclass(frozen=True)
class IrreversibleModel:
    """Matched factorization of the forward map on one grid: ``omega`` and
    its SVD.

    All pieces come from a single SVD of ``omega``, so the polar identity
    ``isometry @ lam = omega`` and the intertwining relations hold at
    machine precision.  ``singular_values`` are those of ``omega`` (equal to
    the eigenvalues of ``lam``), sorted descending; the smallest one is the
    injectivity margin of the discrete model.  The Lyapunov operator is not
    stored: ``lam @ lam`` is its square-root form, ``|omega psi|^2`` its
    expectation, and :func:`~timearrow.lyapunov.build_m_f` its dense matrix.
    """

    grid: GridSpec
    omega: LinOp
    lam: LinOp
    isometry: LinOp
    singular_values: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.singular_values, dtype=np.float64)
        s.setflags(write=False)
        object.__setattr__(self, "singular_values", s)


def build_model(grid: GridSpec) -> IrreversibleModel:
    """Factor the forward map once and package the dense-tier operators."""
    omega = build_omega(grid)
    u, s, vh = np.linalg.svd(omega.matrix)
    r = u @ vh
    lam = (vh.conj().T * s) @ vh
    lam = 0.5 * (lam + lam.conj().T)
    return IrreversibleModel(
        grid=grid,
        omega=omega,
        lam=LinOp(grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, lam, hermitian=True),
        isometry=LinOp(grid, Space.HALF_LINE_POS, Space.HARDY_PLUS, r),
        singular_values=s,
    )


def _shift_rows(model: IrreversibleModel, t: float, snap: bool) -> int:
    """Row count ``e = k * k_dim`` of the shift at ``t = k * delta_tau``."""
    return _semigroup_index(model.grid, t, snap) * model.grid.k_dim


def z_matrix(model: IrreversibleModel, t: float, snap: bool = False) -> np.ndarray:
    """Dense matrix of ``Z(t) = R[:N-e]^H R[e:]`` (see the module note).

    One product of two row slices of ``R``; the zero matrix once the shift
    reaches half the window.
    """
    e = _shift_rows(model, t, snap)
    r = model.isometry.matrix
    return r[: max(r.shape[0] - e, 0)].conj().T @ r[e:]


def _to_hardy(model: IrreversibleModel, psi: StateVector) -> StateVector:
    """``R psi``: a half-line state carried into the Hardy picture."""
    if psi.space is not Space.HALF_LINE_POS:
        raise ValueError("the transported semigroup acts on HALF_LINE_POS states")
    r = model.isometry.matrix
    return StateVector(model.grid, Space.HARDY_PLUS, r @ psi.amplitudes)


def _from_hardy(model: IrreversibleModel, h: StateVector) -> StateVector:
    """``R^H h``, without copying the conjugate of ``R``."""
    rh = (h.amplitudes.conj() @ model.isometry.matrix).conj()
    return StateVector(model.grid, Space.HALF_LINE_POS, rh)


def z_evolve(
    model: IrreversibleModel, psi: StateVector, t: float, snap: bool = False
) -> StateVector:
    """Apply ``Z(t) = R* T_u(t) R`` to a half-line state.

    Contraction semigroup on lattice times: ``Z(0)`` is the identity, the
    semigroup law holds at machine precision, norms never increase, and
    every state in the square root's range is annihilated by the time the
    shift crosses half the window.
    """
    return _from_hardy(model, toeplitz_step(_to_hardy(model, psi), t, snap))


def z_adjoint(
    model: IrreversibleModel, psi: StateVector, t: float, snap: bool = False
) -> StateVector:
    """Apply ``Z*(t) = R* (T_u(t))* R``, the co-isometric adjoint."""
    return _from_hardy(model, toeplitz_adjoint(_to_hardy(model, psi), t, snap))


def intertwining_residual(
    model: IrreversibleModel,
    t: float,
    psi_set: list[StateVector],
    snap: bool = False,
) -> tuple[float, float]:
    """Residuals of the forward and adjoint intertwining relations.

    Returns the pair of maxima over the given states of

    * ``|lam u(t) psi - Z(t) lam psi| / |psi|``  (forward relation),
    * ``|u(-t) lam psi - lam Z*(t) psi| / |psi|``  (adjoint relation).

    Both vanish identically in the continuum model.  Discretely the forward
    residual is rounding-level on states whose own time profile is
    guard-banded, while the adjoint relation routes mass backward through
    the transported representation, so its residual is rounding-level on
    states guard-banded *after* transport — e.g. ``lam``-images of
    guard-banded states, for which the transported profile is the forward
    image itself.  Outside those domains the finite window's edge defect
    enters at order one.  Both relations are evaluated at the same lattice
    time: with ``snap=True`` an off-lattice ``t`` is rounded once, on entry.
    """
    if not psi_set:
        raise ValueError("psi_set must contain at least one state")
    t = _semigroup_index(model.grid, t, snap) * model.grid.delta_tau
    forward = 0.0
    adjoint = 0.0
    for psi in psi_set:
        scale = norm(psi)
        if scale == 0.0:
            continue
        lhs = model.lam.apply(unitary_evolve(psi, t))
        rhs = z_evolve(model, model.lam.apply(psi), t)
        forward = max(forward, norm(lhs - rhs) / scale)
        lhs_a = unitary_evolve(model.lam.apply(psi), -t)
        rhs_a = model.lam.apply(z_adjoint(model, psi, t))
        adjoint = max(adjoint, norm(lhs_a - rhs_a) / scale)
    return forward, adjoint
