"""Square root of the Lyapunov operator and the irreversible semigroup.

The positive square root ``lam`` of the Lyapunov operator intertwines the
unitary half-line evolution with a contraction semigroup ``Z(t)``: pushing a
state through ``lam`` moves it to the "irreversible" picture in which
dynamics only runs forward.  The bridge is the unitary polar factor ``R`` of
the forward map: ``omega = R lam``, and ``Z(t) = R* T_u(t) R`` is the
unitary transport of the truncated-shift semigroup.

At ``t = k * delta_tau`` the shift ``T_u(t)`` moves time sample ``j + k``
into sample ``j``.  Every operator here acts on each fibre alike (see
:mod:`timearrow.spaces`): row ``j`` of ``R``'s dense ``n x n`` block is time
bin ``j``, and ``Z(t) = R[:n-k]^H R[k:]`` on every fibre.  ``_z_block`` is
the one place that composes the two legs of ``R`` with the slices of
:mod:`timearrow.evolution` between them; :func:`z_evolve`, :func:`z_adjoint`
and every block of states or times use it.  ``lam`` and ``R`` act from one
real matrix ``v`` that holds both halves of ``Q`` (below); their dense
matrices are built on request.

Conditioning note: the forward map's smallest singular values sink below
machine epsilon (its continuum limit has no bounded inverse), so nothing
here inverts ``lam``, forms ``M^(-1/2)`` or takes an SVD.  The scalar map is
``gamma D E D``, with ``D`` a diagonal of unit phases and ``E`` a centred
DFT block; ``E`` commutes with a real tridiagonal ``T`` (the discrete
prolate structure of Slepian and Grünbaum) whose eigenvectors ``q_k``, in
descending order, alternate in parity and satisfy ``E q_k = (-i)^k sigma_k
q_k``, all from one half-size eigenproblem (:func:`_prolate_vectors`).  Its
eigenvectors ``v``, in ascending order, are the model's one stored matrix:
``Q = [[v J, S v], [J v J, -J S v]] / sqrt(2)``, with ``J`` the reversal and
``S = diag((-1)^j)`` the parity signs, both exact.  So
``R = gamma D Q diag((-i)^k) Q^T D`` takes its phases from the parity rule,
not from ``omega q_k / sigma_k``: unitary and symmetric (as ``omega`` is) even
where ``sigma_k`` is rounding noise, and ``lam = conj(D) Q diag(sigma) Q^T D``
keeps ``R lam = omega`` at machine precision (a root of the Lyapunov operator
would lose half the digits of the smallest singular values, as squaring the
map squares them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import _column_chunks, _semigroup_index, _toeplitz_block, _unitary_block
from .lyapunov import _dft_lookup
from .spaces import GridSpec, LinOp, Space, StateVector, _column_norms, norm

__all__ = [
    "IrreversibleModel",
    "ProlateOp",
    "build_model",
    "z_matrix",
    "z_evolve",
    "z_adjoint",
    "intertwining_residual",
]

@dataclass(frozen=True, eq=False)
class ProlateOp:
    """``left * Q diag(c) Q^T (right * x)`` on every fibre, ``Q = [[v J, S v],
    [J v J, -J S v]] / sqrt(2)``, ``c`` real times ``phase`` on its odd half.
    Blocks are ``n x (k_dim m)`` views, as for :class:`~timearrow.spaces.LinOp`;
    each real product takes their real and imaginary parts at once (3x faster
    than numpy's real-times-complex one), and ``S`` and ``J`` act on those
    blocks, never on ``v``.  The adjoint conjugates ``phase``, ``left`` and
    ``right``; ``_entries`` and ``matrix`` are built on request."""

    grid: GridSpec
    domain: Space
    codomain: Space
    v: np.ndarray
    c: np.ndarray
    phase: complex
    left: np.ndarray
    right: np.ndarray
    hermitian: bool = False

    apply = LinOp.apply  # its space-tag checks, around this class's _act

    def _act(self, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
        def real_product(y, z):  # one real product on the float view of z
            return (y @ z.view(np.float64)).view(np.complex128)

        left, right, phase = self.left, self.right, self.phase
        if adjoint:
            left, right, phase = right.conj(), left.conj(), np.conj(phase)
        v = self.v
        h = v.shape[0]
        s = _parity_signs(h)[:, None]
        b = a.reshape(2 * h, self.grid.k_dim, -1)
        x = np.multiply(b, right[:, None, None], order="C").reshape(2 * h, -1)
        # Q^T folds the halves as top +- J bottom; the even half's rows come
        # in v's ascending order, so c_e is read reversed
        even = real_product(v.T, x[:h] + x[h:][::-1])
        odd = x[:h] - x[h:][::-1]
        del x
        odd *= s
        odd = real_product(v.T, odd)
        even *= 0.5 * self.c[h - 1 :: -1, None]
        odd *= (0.5 * phase) * self.c[h:, None]
        even, odd = real_product(v, even), real_product(v, odd)
        odd *= s
        out = np.empty((2 * h, even.shape[1]), dtype=np.complex128)
        np.add(even, odd, out=out[:h])
        np.subtract(even, odd, out=out[h:][::-1])
        out *= left[:, None]
        return out.reshape(a.shape)

    def _parts(self) -> tuple[np.ndarray, np.ndarray]:
        """The real ``h x h`` parts ``Y_e c_e Y_e^T`` and ``Y_o c_o Y_o^T =
        S v c_o v^T S``, the even one through the reversed view of ``v``."""
        y, (c_e, c_o) = self.v[:, ::-1], np.split(self.c, 2)
        s = _parity_signs(y.shape[0])
        odd = (self.v * c_o) @ self.v.T
        odd *= s[:, None]
        odd *= s
        return (y * c_e) @ y.T, odd

    @property
    def _entries(self) -> np.ndarray:
        """``Q diag(c) Q^T`` times the phases, per bin."""
        out = _persymmetric(*self._parts(), self.phase) * self.left[:, None]
        out *= self.right
        return out

    @property
    def matrix(self) -> np.ndarray:
        return LinOp(self.grid, self.domain, self.codomain, self._entries).matrix


def _persymmetric(e: np.ndarray, o: np.ndarray, phase: complex = 1.0) -> np.ndarray:
    """``[[B, C J], [J C, J B J]]`` with ``B, C = (e +- phase o) / 2``: the
    ``n x n`` form of ``Q diag(c) Q^T`` from its even and odd parts.  ``B``
    and ``C`` are formed in their quadrants of the result."""
    h = e.shape[0]
    out = np.empty((2 * h, 2 * h), dtype=np.result_type(e, o, phase))
    b, c = out[:h, :h], out[h:, :h][::-1]
    np.multiply(phase, o, out=c)
    np.add(e, c, out=b)
    np.subtract(e, c, out=c)
    b *= 0.5
    c *= 0.5
    out[:h, h:] = c[:, ::-1]
    out[h:, h:] = b[::-1, ::-1]
    return out


def _isometry_defect(r: ProlateOp) -> np.ndarray:
    """``D* R R^H D - I = D R^H R D* - I``, real and read-only: ``Q^T Q`` is
    block diagonal by parity, so both are ``R``'s dense form with parts ``e e``
    and ``o o`` and no phases, minus ``I``; ``Z(0) = R^H R``."""
    e, o = r._parts()
    e = e @ e  # each part is freed once its square exists
    o = o @ o
    d = _persymmetric(e, o)
    d.flat[:: d.shape[0] + 1] -= 1.0
    d.setflags(write=False)
    return d


@dataclass(frozen=True)
class IrreversibleModel:
    """Matched factorization of the forward map ``omega`` on one grid.

    Stored: the one real matrix ``v`` of the eigenbasis ``Q = [[v J, S v],
    [J v J, -J S v]] / sqrt(2)`` (module note), the singular values ``sigma``
    in ``Q``'s order, the phases ``d`` and ``gamma``; ``omega`` and the
    Lyapunov operator are not.  ``lam`` and ``isometry`` are
    :class:`ProlateOp` views built on each access, so ``isometry @ lam =
    omega`` and the intertwining relations hold at machine precision.
    ``singular_values``: sorted descending, repeated on every fibre; the
    smallest is the injectivity margin of the discrete model.
    """

    grid: GridSpec
    v: np.ndarray
    sigma: np.ndarray
    d: np.ndarray
    gamma: complex

    def __post_init__(self):
        for a in (self.v, self.sigma, self.d):
            a.setflags(write=False)

    @property
    def lam(self) -> ProlateOp:
        half = Space.HALF_LINE_POS
        return ProlateOp(self.grid, half, half, self.v, self.sigma, 1.0,
                         self.d.conj(), self.d, hermitian=True)

    @property
    def isometry(self) -> ProlateOp:
        # (-i)^k on q_k: +-1 alternating on the even and -i times that on the odd
        alt = np.tile((-1.0) ** np.arange(self.sigma.size // 2), 2)
        return ProlateOp(self.grid, Space.HALF_LINE_POS, Space.HARDY_PLUS,
                         self.v, alt, -1j, self.gamma * self.d, self.d)

    @property
    def singular_values(self) -> np.ndarray:
        return np.repeat(np.sort(self.sigma)[::-1], self.grid.k_dim)


def _parity_signs(h: int) -> np.ndarray:
    """The diagonal of ``S = diag((-1)^j)``, ``j = 0 .. h-1``."""
    return (-1.0) ** np.arange(h)


def _prolate_vectors(n_sigma: int) -> np.ndarray:
    """Eigenvectors of the tridiagonal that commutes with ``E``, as one matrix.

    ``T`` has zero diagonal and off-diagonal ``sin(pi j / n) sin(pi (N - j)
    / n)``, ``j = 1 .. N-1``.  It is persymmetric, so its eigenvectors are
    ``[y; J y] / sqrt(2)`` (even) and ``[y; -J y] / sqrt(2)`` (odd), with
    ``y`` an eigenvector of the leading ``N/2`` block ``A_+`` or ``A_-``:
    plus or minus the coupling entry in its last diagonal place.  ``A_- = -S
    A_+ S`` exactly (:func:`_parity_signs`), so with ``v`` the eigenvectors of
    ``A_+`` in ascending order, the even half in descending order is ``Y_e =
    v J`` (its columns reversed) and the odd half is ``Y_o = S v``.  Returns
    ``v``, C-ordered, the one matrix from which both halves are read.
    """
    nh = n_sigma // 2
    j = np.arange(1, nh // 2 + 1)
    off = np.sin(np.pi * j / n_sigma) * np.sin(np.pi * (nh - j) / n_sigma)
    a = np.diag(off[:-1], 1)
    a += a.T
    a[-1, -1] = off[-1]
    return np.linalg.eigh(a)[1]


def _factors(n_sigma: int) -> tuple[np.ndarray, np.ndarray]:
    """The model's ``v`` and ``sigma``, which depend on the grid size alone: one
    half-size real symmetric eigenproblem for both halves of the commuting
    tridiagonal (module note), two half-size real products for ``sigma``."""
    nh = n_sigma // 2
    v = _prolate_vectors(n_sigma)
    # sigma_k = |E q_k|: Re and -Im of E's leading quarter act on the even /
    # odd halves (v reversed, S v), each gathered from the lookup table
    index, table = _dft_lookup(n_sigma, 2 * np.arange(nh // 2) + 1 - nh)
    even = np.linalg.norm(table.real[index] @ v, axis=0)[::-1]
    odd = table.imag[index]
    odd *= _parity_signs(nh // 2)
    return v, 2.0 * np.concatenate([even, np.linalg.norm(odd @ v, axis=0)])


def _assemble(grid: GridSpec, v: np.ndarray, sigma: np.ndarray) -> IrreversibleModel:
    """The model of ``grid``: :func:`_factors` of its size, phases in closed form."""
    nh = grid.n_half()
    d = np.exp(-0.5j * np.pi * (np.arange(nh) + 0.5 - nh / 2))
    return IrreversibleModel(grid, v, sigma, d, np.exp(-0.25j * np.pi * nh))


def build_model(grid: GridSpec) -> IrreversibleModel:
    """Factor the forward map once; no SVD, no dense matrix, no file."""
    return _assemble(grid, *_factors(grid.n_sigma))


def z_matrix(model: IrreversibleModel, t: float) -> np.ndarray:
    """Dense matrix of ``Z(t) = R[:n-k]^H R[k:]`` (see the module note).

    One product of two row slices of ``R``, lifted to every fibre; the zero
    matrix once the shift reaches half the window.
    """
    k = _semigroup_index(model.grid, t)
    r = model.isometry._entries
    z = r[: max(r.shape[0] - k, 0)].conj().T @ r[k:]
    return LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS, z).matrix


def z_evolve(model: IrreversibleModel, psi: StateVector, t: float) -> StateVector:
    """Apply ``Z(t) = R* T_u(t) R`` to a half-line state.

    Contraction semigroup on lattice times: ``Z(0)`` is the identity, the
    semigroup law holds at machine precision, norms never increase, and
    every state in the square root's range is annihilated by the time the
    shift crosses half the window.
    """
    return _z_shift(model, psi, _semigroup_index(model.grid, t))


def z_adjoint(model: IrreversibleModel, psi: StateVector, t: float) -> StateVector:
    """Apply ``Z*(t) = R* (T_u(t))* R``, the co-isometric adjoint."""
    return _z_shift(model, psi, -_semigroup_index(model.grid, t))


def _z_shift(model: IrreversibleModel, psi: StateVector, k: int) -> StateVector:
    if psi.space is not Space.HALF_LINE_POS:
        raise ValueError("the transported semigroup acts on HALF_LINE_POS states")
    z = _z_block(model, psi.amplitudes, k)
    return StateVector(model.grid, Space.HALF_LINE_POS, z)


def _z_block(model: IrreversibleModel, a: np.ndarray, k) -> np.ndarray:
    """``Z(k delta_tau) = R^H T(k delta_tau) R`` on half-line amplitudes, in
    the shapes of :func:`~timearrow.evolution._toeplitz_block`: a vector with
    an array of lattice indices ``k`` (one column each) or an ``N x m`` block
    with one; ``-k`` gives ``Z*``.  ``R^H`` conjugates only O(N) vectors."""
    r = model.isometry
    return r._act(_toeplitz_block(model.grid, r._act(a), k), adjoint=True)


def intertwining_residual(
    model: IrreversibleModel, t, psi_set: list[StateVector]
) -> tuple[float, float]:
    """Residuals of the forward and adjoint intertwining relations.

    Returns the pair of maxima over the given states and over the lattice
    time ``t``, or every time of an array ``t``, of

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
    times, one block of times per state.
    """
    if not psi_set:
        raise ValueError("psi_set must contain at least one state")
    ks = np.atleast_1d(_semigroup_index(model.grid, t))
    lam = model.lam
    forward = adjoint = 0.0
    for psi in psi_set:
        scale = norm(psi)
        if scale == 0.0:
            continue
        moved = lam.apply(psi)
        for cols in _column_chunks(ks.size):
            k = ks[cols]
            t_k = k * model.grid.delta_tau
            lhs = lam._act(_unitary_block(psi, t_k))
            rhs = _z_block(model, moved.amplitudes, k)
            lhs_a = _unitary_block(moved, -t_k)
            rhs_a = lam._act(_z_block(model, psi.amplitudes, -k))
            forward = max(forward, _column_norms(psi.grid, lhs - rhs).max() / scale)
            adjoint = max(adjoint, _column_norms(psi.grid, lhs_a - rhs_a).max() / scale)
    return float(forward), float(adjoint)
