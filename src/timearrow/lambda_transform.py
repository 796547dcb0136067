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
here inverts ``lam``, forms ``M^(-1/2)`` or takes an SVD.  The scalar map is
``gamma D E D``, with ``D`` a diagonal of unit phases and ``E`` a centred
DFT block; ``E`` commutes with a real tridiagonal ``T`` (the discrete
prolate structure of Slepian and Grünbaum) whose eigenvectors ``q_k``, in
descending order, alternate in parity and satisfy ``E q_k = (-i)^k sigma_k
q_k``.  So ``R = gamma D Q diag((-i)^k) Q^T D`` takes its phases from the
parity rule, not from ``omega q_k / sigma_k``: it is unitary and symmetric
(as ``omega`` is) even where ``sigma_k`` is rounding noise, and ``lam =
conj(D) Q diag(sigma) Q^T D`` keeps ``R lam = omega`` at machine precision
(a square root taken from the Lyapunov operator itself would lose half the
digits of the smallest singular values, since squaring the map squares them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import _semigroup_index, toeplitz_adjoint, toeplitz_step, unitary_evolve
from .lyapunov import _dft_block, _fiberize, build_omega
from .spaces import GridSpec, LinOp, Space, StateVector, _freeze, norm

__all__ = [
    "IrreversibleModel",
    "build_model",
    "z_matrix",
    "z_evolve",
    "z_adjoint",
    "intertwining_residual",
]

@dataclass(frozen=True)
class IrreversibleModel:
    """Matched factorization of the forward map on one grid: ``omega``, its
    polar factors and its singular values.

    ``lam`` and ``isometry`` share one eigenbasis of the commuting
    tridiagonal (see the module note), so the polar identity ``isometry @
    lam = omega`` and the intertwining relations hold at machine precision.
    ``singular_values`` are those of ``omega`` (equal to the eigenvalues of
    ``lam``), sorted descending; the smallest one is the injectivity margin
    of the discrete model.  The Lyapunov operator is not stored: ``lam @
    lam`` is its square-root form, ``|omega psi|^2`` its expectation, and
    :func:`~timearrow.lyapunov.build_m_f` its dense matrix.
    """

    grid: GridSpec
    omega: LinOp
    lam: LinOp
    isometry: LinOp
    singular_values: np.ndarray

    def __post_init__(self):
        _freeze(self, "singular_values", np.float64)


def _prolate_halves(n_sigma: int):
    """Eigenvector halves of the tridiagonal that commutes with ``E``.

    ``T`` has zero diagonal and off-diagonal ``sin(pi j / n) sin(pi (N - j)
    / n)``, ``j = 1 .. N-1``.  It is persymmetric, so its eigenvectors are
    ``[y; J y] / sqrt(2)`` (even) and ``[y; -J y] / sqrt(2)`` (odd), with
    ``y`` an eigenvector of the leading ``N/2`` block plus or minus the
    coupling entry in its last diagonal place.  Yields the even and then the
    odd ``y``, as columns in descending order of eigenvalue.
    """
    nh = n_sigma // 2
    j = np.arange(1, nh // 2 + 1)
    off = np.sin(np.pi * j / n_sigma) * np.sin(np.pi * (nh - j) / n_sigma)
    a = np.diag(off[:-1], 1)
    a += a.T
    for sign in (1.0, -1.0):
        a[-1, -1] = sign * off[-1]
        yield np.linalg.eigh(a)[1][:, ::-1]


def _persymmetric(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The matrix ``[[B, C J], [J C, J B J]]`` from its two leading blocks."""
    h = b.shape[0]
    out = np.empty((2 * h, 2 * h), dtype=np.complex128)
    out[:h, :h] = b
    out[:h, h:] = c[:, ::-1]
    out[h:, :h] = c[::-1]
    out[h:, h:] = b[::-1, ::-1]
    return out


def build_model(grid: GridSpec) -> IrreversibleModel:
    """Factor the forward map once and package the dense-tier operators.

    Polar factors from the commuting tridiagonal (see the module note): two
    half-size real symmetric eigenproblems and a few half-size real
    products, no SVD.  Fibres repeat every singular value ``k_dim`` times.
    """
    omega = build_omega(grid)
    n = grid.n_sigma
    nh = grid.n_half()
    h = nh // 2
    # leading quarter of E; C = Re and S = -Im of it act on even / odd halves
    e = _dft_block(n, 2 * np.arange(h) + 1 - nh)
    y_even, y_odd = _prolate_halves(n)
    s_even = 2.0 * np.linalg.norm(e.real @ y_even, axis=0)
    s_odd = 2.0 * np.linalg.norm(e.imag @ y_odd, axis=0)
    del e
    # (-i)^k on q_k: +-1 alternating on the even and -i times that on the odd
    alt = (-1.0) ** np.arange(h)
    w = 0.5 * ((y_even * alt) @ y_even.T - 1j * ((y_odd * alt) @ y_odd.T))
    l_even = (y_even * s_even) @ y_even.T
    l_odd = (y_odd * s_odd) @ y_odd.T
    l_even = 0.5 * (l_even + l_even.T)
    l_odd = 0.5 * (l_odd + l_odd.T)
    r = _persymmetric(w, w.conj())
    lam = _persymmetric(0.5 * (l_even + l_odd), 0.5 * (l_even - l_odd))
    d = np.exp(-0.5j * np.pi * (np.arange(nh) + 0.5 - nh / 2))
    r *= (np.exp(-0.25j * np.pi * nh) * d)[:, None]
    r *= d
    # conj(d_i) d_j = i^(i - j) exactly: with the real blocks symmetric, lam
    # is Hermitian by construction, bit for bit
    for a in range(4):
        for b in range(4):
            lam[a::4, b::4] *= 1j ** ((a - b) % 4)
    s = np.sort(np.concatenate([s_even, s_odd]))[::-1]
    k = grid.k_dim
    return IrreversibleModel(
        grid=grid,
        omega=omega,
        lam=LinOp._hermitian_by_construction(
            grid, Space.HALF_LINE_POS, _fiberize(lam, k)
        ),
        isometry=LinOp(grid, Space.HALF_LINE_POS, Space.HARDY_PLUS, _fiberize(r, k)),
        singular_values=np.repeat(s, k),
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


def _from_hardy(model: IrreversibleModel, h: np.ndarray) -> np.ndarray:
    """``R^H h`` for Hardy amplitudes ``h``, a vector or an ``N x m`` block,
    as ``(h^H R)^H``: no conjugate of ``R`` is copied."""
    return (h.conj().T @ model.isometry.matrix).conj().T


def z_evolve(
    model: IrreversibleModel, psi: StateVector, t: float, snap: bool = False
) -> StateVector:
    """Apply ``Z(t) = R* T_u(t) R`` to a half-line state.

    Contraction semigroup on lattice times: ``Z(0)`` is the identity, the
    semigroup law holds at machine precision, norms never increase, and
    every state in the square root's range is annihilated by the time the
    shift crosses half the window.
    """
    h = toeplitz_step(_to_hardy(model, psi), t, snap)
    return StateVector(h.grid, Space.HALF_LINE_POS, _from_hardy(model, h.amplitudes))


def z_adjoint(
    model: IrreversibleModel, psi: StateVector, t: float, snap: bool = False
) -> StateVector:
    """Apply ``Z*(t) = R* (T_u(t))* R``, the co-isometric adjoint."""
    h = toeplitz_adjoint(_to_hardy(model, psi), t, snap)
    return StateVector(h.grid, Space.HALF_LINE_POS, _from_hardy(model, h.amplitudes))


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
