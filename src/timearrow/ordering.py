"""Past/future projections, their spectral measure, and the ordering operator.

At each lattice time the contraction semigroup splits the half-line space
into a past subspace (states already annihilated, ``Ker Z(t)``) and its
orthogonal complement, the future subspace.  Because ``Z(t) = R* S_k R``
with ``S_k`` a slice of rows (see :mod:`timearrow.lambda_transform`), every
operator here is ``R^H diag(w) R`` on a block of rows of ``R``'s per-bin
matrix (one row per time bin, ``n`` rows).  With ``e = k`` rows behind the
shift at ``t = k * delta_tau``:

* the past projection ``I - Z*(t) Z(t)`` is ``R[:e]^H R[:e]`` and the
  future projection ``Z*(t) Z(t)`` is ``R[e:]^H R[e:]``: exact orthogonal
  projections of the discrete model, of rank ``e`` and ``n - e`` per fibre;
* the increment over ``(t_i, t_{i+1}]`` is the row block ``R[e_i:e_{i+1}]``,
  and the ordering operator ``T`` weights each block with its midpoint.

:func:`future_projection` and :func:`assemble_T` build their dense matrices
on request; a family holds only ``R`` and its times.  The family's numbers
need no dense matrix, nor ``R``: only ``G = R R^H``, through the real
defect ``D* G D - I`` (``D`` the unit phases of ``R = gamma D Q C Q^T D``;
norms, traces and leading-block spectra do not see ``D``; its norm is also
``|R^H R - I|``), built from the model's one eigenvector matrix ``v`` by
:mod:`timearrow.lambda_transform`.
:meth:`ProjectionFamily.residuals` reads it, with Weyl-certified ranks.  As
``spec(XY) = spec(YX)``, ``T = (R^H M^(1/2)) (M^(1/2) R)`` (``M`` the
midpoint weights) has the spectrum of ``M + M^(1/2) D M^(1/2)`` on its
first ``E`` rows (``E`` the last row end), and ``n - E`` zeros: by Weyl's
inequality, the weights and zeros to within ``max(M) |D|``.  On the full
space each matrix is ``kron(block, I_k)``: ranks and spectra repeat
``k_dim`` times, and Frobenius norms grow by ``sqrt(k_dim)``, as
``<kron(A, I), kron(B, I)> = k_dim <A, B>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolution import _column_chunks, _semigroup_index, _unitary_block
from .lambda_transform import IrreversibleModel, ProlateOp, _isometry_defect, _z_block
from .lyapunov import _omega_block
from .spaces import LinOp, Space, StateVector, _column_norms, _freeze, norm

__all__ = [
    "ProjectionFamily",
    "future_projection",
    "spectral_measure",
    "assemble_T",
    "projection_rank",
    "irreversible_matrix_element",
    "correspondence_check",
]

# Projection spectra must cluster at {0, 1} at least this tightly for a rank
# decision to be meaningful.
_CLUSTER_GAP = 1e-4


def _row_weighted(isometry: ProlateOp, lo: int, hi: int | None = None, w=1.0) -> LinOp:
    """``R[lo:hi]^H diag(w) R[lo:hi]``, ``w`` a weight per row or one for all."""
    a = isometry._entries[lo:hi]
    m = (a.conj().T * w) @ a
    return LinOp._hermitian_by_construction(
        isometry.grid, Space.HALF_LINE_POS, 0.5 * (m + m.conj().T)
    )


def _cluster_rank(vals: np.ndarray) -> int:
    dist = np.minimum(np.abs(vals), np.abs(vals - 1.0))
    worst = float(dist.max(initial=0.0))
    if worst > _CLUSTER_GAP:
        raise ValueError(
            f"spectrum not clustered at {{0,1}}: worst deviation {worst:.3e}"
        )
    return int(np.count_nonzero(vals > 0.5))


def future_projection(model: IrreversibleModel, t: float) -> LinOp:
    """Projection onto the forward-relevant subspace, ``Z*(t) Z(t) = R[e:]^H R[e:]``.

    An exact orthogonal projection of the discrete model (the shift's
    isometric leg has no edge defect), equal to ``I`` at ``t = 0``.
    """
    return _row_weighted(model.isometry, _semigroup_index(model.grid, t))


@dataclass(frozen=True)
class ProjectionFamily:
    """Increasing family of past projections: the model's ``R`` and its times.

    ``isometry`` is the model's factored ``R``; :attr:`row_ends` count its
    per-bin rows, ``row_ends[i] = min(k_i, n)`` for ``times[i] = k_i *
    delta_tau`` (past the half window the past projection is the identity).
    The past projection at ``times[i]`` is ``R[:e_i]^H R[:e_i]`` and the
    measure of the half-open interval ``(times[i], times[i+1]]`` is the row
    block ``R[e_i:e_{i+1}]``; the family forms neither, only their
    residuals (:meth:`residuals`) and ``T``'s weights.  It starts at
    ``times[0] = 0`` with the zero projection and is nested: earlier
    projections absorb into later ones.
    """

    isometry: ProlateOp
    times: np.ndarray
    row_ends: np.ndarray = field(init=False)

    def __post_init__(self):
        t = _freeze(self, "times", np.float64)
        grid = self.isometry.grid
        ends = np.minimum(_semigroup_index(grid, t), grid.n_half())
        object.__setattr__(self, "row_ends", ends)
        _freeze(self, "row_ends", np.int64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a projection family needs at least two times")
        if abs(t[0]) > 1e-12:
            raise ValueError(f"family must start at t = 0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("family times must be strictly increasing")

    @cached_property
    def defect(self) -> np.ndarray:
        """``D* R R^H D - I``, formed once per family (``_isometry_defect``)."""
        return _isometry_defect(self.isometry)

    def residuals(self) -> list[tuple[int, float, float, float]]:
        """``(rank, idempotency, nesting, complement)`` of each projection.

        The Frobenius residuals ``|P^2 - P|``, ``|Q P - Q|`` (``Q`` the
        previous projection) and ``|P + P_future - I|`` of the dense
        matrices, without forming any.  ``P = A^H A`` with ``A = R[:e]``, and
        ``A A^H = G_e`` is the leading block of ``G``.  Let ``D`` be
        :attr:`defect` (``G - I``, whose phases cancel from every quantity
        here), ``F = D[:q, :e]`` (``q`` the previous row end) and ``C_j = D +
        D[:, :e_j] D[:e_j, :]``, updated in place on the first ``E`` rows and
        columns by one panel product ``D[:, q:e] D[q:e, :]`` per time.  Then
        ``|P^2 - P| = |D_e G_e| = |C_j[:e, :e]|``, ``|Q P - Q|^2 = tr(F^H G_q
        F G_e)`` is the inner product of ``C_{j-1}[:q, :e] = G_q F`` and
        ``C_j[:q, :e] = F G_e``, and since ``P + P_future = R^H R``, the
        complement residual is ``|D|``.  Weyl's inequality puts the spectrum
        of ``G_e`` within ``|D|`` of 1, so if ``|D| <= 1e-4`` the rank is
        ``e``; otherwise :func:`projection_rank`'s cluster test runs on ``G_e``
        (``ValueError`` if it does not cluster at ``{0, 1}``).  Ranks and
        residuals are lifted to the full space.
        """
        def inner(a, b):  # <a, b> of two real views, copying neither
            return np.einsum("ij,ij->", a, b)

        d, fibres = self.defect, self.isometry.grid.k_dim
        lift = np.sqrt(fibres)
        complement = float(np.linalg.norm(d) * lift)
        big_e = self.row_ends[-1]
        c = d[:big_e, :big_e].copy()  # C_j, updated in place
        out = []
        q = 0
        for e in self.row_ends:
            before = c[:q, :e]  # C_{j-1}
            panel = d[:big_e, q:e] @ d[q:e, :big_e]
            nest_sq = inner(before, before) + inner(before, panel[:q, :e])
            c += panel
            del panel
            nest = float(np.sqrt(max(nest_sq, 0.0)) * lift)
            if complement <= _CLUSTER_GAP:
                rank = int(e)
            else:
                rank = _cluster_rank(np.linalg.eigvalsh(d[:e, :e]) + 1.0)
            idem = float(np.sqrt(inner(c[:e, :e], c[:e, :e])) * lift)
            out.append((rank * fibres, idem, nest, complement))
            q = e
        return out

    @property
    def weights(self) -> np.ndarray:
        """``T``'s weight on each of the first ``E`` rows: its interval's midpoint."""
        mids = 0.5 * (self.times[1:] + self.times[:-1])
        return np.repeat(mids, np.diff(self.row_ends))

    def ordering_extremes(self) -> tuple[float, float]:
        """``T``'s least and greatest eigenvalue to within ``times[-1]`` times
        the complement residual: 0 (the smallest weight once ``E = n``) and
        the largest weight."""
        w = self.weights
        full = w.size == self.isometry.grid.n_half()
        return float(w.min()) if full else 0.0, float(w.max())


def spectral_measure(model: IrreversibleModel, time_grid) -> ProjectionFamily:
    """Past-projection family and interval increments on a lattice time grid.

    The grid must increase strictly from 0; no projection is formed here.
    """
    return ProjectionFamily(model.isometry, time_grid)


def assemble_T(family: ProjectionFamily) -> LinOp:
    """Assemble the ordering operator ``T = R^H diag(m) R`` from a family.

    ``m`` is :attr:`ProjectionFamily.weights` on the first ``E`` rows and 0
    after, so ``T`` is the sum of midpoint times increment.  It commutes with
    every projection in the family.  Its eigenvalues are the midpoints, each
    as often as its increment's rank, and zeros: exactly for a unitary ``R``,
    else within ``times[-1]`` times the complement residual.
    """
    return _row_weighted(family.isometry, 0, family.row_ends[-1], family.weights)


def projection_rank(p: LinOp) -> int:
    """Rank of a projection via its eigenvalue clusters.

    Requires every eigenvalue to sit within ``1e-4`` of 0 or 1 (raises
    otherwise — the input was not numerically a projection) and counts the
    cluster at 1 using the midpoint threshold.
    """
    return _cluster_rank(np.linalg.eigvalsh(p.matrix))


def irreversible_matrix_element(
    model: IrreversibleModel,
    phi: StateVector,
    psi: StateVector,
    observables: list[LinOp],
    time_grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix elements of observables in both pictures along a time grid.

    ``observables`` holds irreversible forms ``x_lambda``, each a
    :class:`LinOp` declared ``hermitian=True`` (checked when it was built; an
    undeclared one raises ``ValueError``), dense or diagonal; the reversible
    form is ``X = lam x_lambda lam``, never an inverse of ``lam``.  Both
    pictures are evaluated at the grid's lattice times.  Returns one array
    per quantity, a row per observable and a column per time:

    * reversible ``(u(t)phi, X u(t)psi)``, taken as ``(lam u(t)phi,
      x_lambda lam u(t)psi)`` since ``lam`` is Hermitian;
    * irreversible ``(Z(t) lam phi, x_lambda Z(t) lam psi)``, with
      ``Z(t) lam psi = R^H T(t) R lam psi``;
    * the absolute differences.

    Per chunk of times, each picture is one block (a column per time) through
    ``lam`` or ``R^H``, shared by every observable; ``Z(t) P(t) = Z(t)``, so
    the future projection ``P(t)`` is not formed.  When ``phi is psi`` the
    phi side reuses the psi side's blocks.
    """
    if phi.space is not Space.HALF_LINE_POS or psi.space is not Space.HALF_LINE_POS:
        raise ValueError("matrix elements take HALF_LINE_POS states")
    for x in observables:
        if x.domain is not Space.HALF_LINE_POS:  # hermitian: codomain too
            raise ValueError("every observable must act on the half-line space")
        if not x.hermitian:
            raise ValueError("every observable must be a LinOp declared hermitian")
    times = np.asarray(time_grid, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    ks = _semigroup_index(model.grid, times)
    lam = model.lam
    same = phi is psi
    l_psi = lam._act(psi.amplitudes)
    l_phi = l_psi if same else lam._act(phi.amplitudes)
    rev = np.empty((len(observables), times.size), dtype=np.complex128)
    irr = np.empty_like(rev)
    for cols in _column_chunks(ks.size):
        k = ks[cols]
        t = k * model.grid.delta_tau
        for out, block, right, left in (
            (rev, lambda s: lam._act(_unitary_block(s, t)), psi, phi),
            (irr, lambda a: _z_block(model, a, k), l_psi, l_phi),
        ):
            b = block(right)
            a = (b if same else block(left)).conj()
            for row, x in zip(out, observables):
                row[cols] = np.einsum("ij,ij->j", a, x._act(b)) * psi.grid.delta_sigma
            del a, b  # one side's blocks at a time
    return rev, irr, np.abs(rev - irr)


def correspondence_check(model: IrreversibleModel, psi: StateVector, t):
    """Both sides of the expectation correspondence, with their gap.

    Returns ``(psi_t, M psi_t)`` from the reversible picture, taken
    matrix-free as ``|omega psi_t|^2``, the irreversible-picture value
    ``(psi_lam, P_future(t) psi_lam) = |Z(t) psi_lam|^2``, and their
    difference relative to the trajectory's initial expectation
    ``|lam psi|^2``: three floats for a scalar ``t``, three arrays for an
    array of times.  Both pictures are evaluated at the lattice times of
    ``t``, one block per chunk of times.  Both sides decay monotonically from
    that common initial value, and the comparison's rounding error scales
    with it, so it stays meaningful at late times, where a pointwise
    quotient would be noise.
    """
    if psi.space is not Space.HALF_LINE_POS:
        raise ValueError("correspondence_check expects a HALF_LINE_POS state")
    k_t = _semigroup_index(model.grid, t)
    ks = np.atleast_1d(k_t)
    transported = model.lam.apply(psi)
    lhs, rhs = np.empty((2, ks.size))
    for cols in _column_chunks(ks.size):
        k = ks[cols]
        evolved = _omega_block(psi.grid, _unitary_block(psi, k * model.grid.delta_tau))
        lhs[cols] = _column_norms(psi.grid, evolved) ** 2
        moved = _z_block(model, transported.amplitudes, k)
        rhs[cols] = _column_norms(psi.grid, moved) ** 2
    denom = max(norm(transported) ** 2, np.finfo(float).tiny)
    rel = np.abs(lhs - rhs) / denom
    if np.ndim(k_t) == 0:
        return float(lhs[0]), float(rhs[0]), float(rel[0])
    return lhs, rhs, rel
