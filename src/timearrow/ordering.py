"""Past/future projections, their spectral measure, and the ordering operator.

At each lattice time the contraction semigroup splits the half-line space
into a past subspace (states already annihilated, ``Ker Z(t)``) and its
orthogonal complement, the future subspace.  Because ``Z(t) = R* S_k R``
with ``S_k`` a slice of rows (see :mod:`timearrow.lambda_transform`), every
operator here is ``R^H diag(w) R``, built from the rows of ``R`` where the
weight ``w`` is nonzero.  With ``e = k * k_dim`` rows behind the shift at
``t = k * delta_tau``:

* the past projection ``I - Z*(t) Z(t)`` is ``R[:e]^H R[:e]`` and the
  future projection ``Z*(t) Z(t)`` is ``R[e:]^H R[e:]``: exact orthogonal
  projections of the discrete model, of rank ``e`` and ``N - e``;
* the increment over ``(t_i, t_{i+1}]`` is the row block ``R[e_i:e_{i+1}]``,
  and the ordering operator ``T`` weights each block with its midpoint;
* :func:`past_projection` is the literal commutator ``[Z(t), Z*(t)]``, with
  weight ``+1`` on the first and ``-1`` on the last ``e`` rows: the finite
  window clips the far edge, so it is an exact projection only on states
  whose transport stays clear of that edge (guard-banded states).  There
  it agrees with the complement form, as it does in the continuum model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    _column_chunks,
    _semigroup_index,
    _toeplitz_block,
    _unitary_block,
    unitary_evolve,
)
from .lambda_transform import (
    IrreversibleModel,
    _from_hardy,
    _shift_rows,
    _to_hardy,
    z_evolve,
)
from .lyapunov import apply_omega
from .spaces import LinOp, Space, StateVector, _freeze, norm

__all__ = [
    "ProjectionFamily",
    "OrderingOperator",
    "past_projection",
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


def _row_weighted(isometry: LinOp, w: np.ndarray) -> LinOp:
    """``R^H diag(w) R``, summed over the rows of ``R`` where ``w`` is nonzero."""
    rows = np.flatnonzero(w)
    a = isometry.matrix[rows]
    m = (a.conj().T * w[rows]) @ a
    return LinOp._hermitian_by_construction(
        isometry.grid, Space.HALF_LINE_POS, 0.5 * (m + m.conj().T)
    )


def _row_block(isometry: LinOp, lo: int, hi: int | None = None) -> LinOp:
    """``R[lo:hi]^H R[lo:hi]``."""
    w = np.zeros(isometry.matrix.shape[0])
    w[lo:hi] = 1.0
    return _row_weighted(isometry, w)


def _cluster_rank(vals: np.ndarray) -> int:
    dist = np.minimum(np.abs(vals), np.abs(vals - 1.0))
    worst = float(dist.max(initial=0.0))
    if worst > _CLUSTER_GAP:
        raise ValueError(
            f"spectrum not clustered at {{0,1}}: worst deviation {worst:.3e}"
        )
    return int(np.count_nonzero(vals > 0.5))


def past_projection(
    model: IrreversibleModel, t: float, snap: bool = False
) -> LinOp:
    """Projection onto states the semigroup has killed by time ``t``.

    The literal commutator ``Z Z* - Z* Z = R^H (S S^H - S^H S) R``; see the
    module note for its finite-window domain of validity.  At ``t = 0`` it
    vanishes identically.
    """
    e = _shift_rows(model, t, snap)
    rows = np.arange(model.grid.dim(Space.HALF_LINE_POS))
    d = (rows < rows.size - e).astype(np.float64) - (rows >= e)
    return _row_weighted(model.isometry, d)


def future_projection(
    model: IrreversibleModel, t: float, snap: bool = False
) -> LinOp:
    """Projection onto the forward-relevant subspace, ``Z*(t) Z(t) = R[e:]^H R[e:]``.

    An exact orthogonal projection of the discrete model (the shift's
    isometric leg has no edge defect), equal to ``I`` at ``t = 0``.
    """
    return _row_block(model.isometry, _shift_rows(model, t, snap))


@dataclass(frozen=True)
class ProjectionFamily:
    """Increasing family of past projections, held as row ends of ``R``.

    ``row_ends[i] = k_i * k_dim`` for ``times[i] = k_i * delta_tau``.
    :meth:`projection` ``(i)`` is the past projection ``R[:e_i]^H R[:e_i]``
    at ``times[i]``; :meth:`increment` ``(i)`` is the measure of the
    half-open interval ``(times[i], times[i+1]]``, the row block
    ``R[e_i:e_{i+1}]``.  Matrices are built only when asked for.  The family
    starts at ``times[0] = 0`` with the zero projection and is nested:
    earlier projections absorb into later ones.
    """

    isometry: LinOp
    times: np.ndarray
    row_ends: np.ndarray

    def __post_init__(self):
        t = _freeze(self, "times", np.float64)
        ends = _freeze(self, "row_ends", np.int64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a projection family needs at least two times")
        if abs(t[0]) > 1e-12:
            raise ValueError(f"family must start at t = 0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("family times must be strictly increasing")
        if ends.shape != t.shape or np.any(np.diff(ends) < 0):
            raise ValueError("row ends inconsistent with the time grid")

    def projection(self, i: int) -> LinOp:
        return _row_block(self.isometry, 0, self.row_ends[i])

    def increment(self, i: int) -> LinOp:
        return _row_block(self.isometry, self.row_ends[i], self.row_ends[i + 1])

    def residuals(self) -> list[tuple[int, float, float, float]]:
        """``(rank, idempotency, nesting, complement)`` of each projection.

        The Frobenius residuals ``|P^2 - P|``, ``|Q P - Q|`` (``Q`` the
        previous projection) and ``|P + P_future - I|`` of the dense
        matrices, from ``G = R R^H`` without forming any of them.  For
        ``P = A^H A`` with ``A = R[:e]``, ``A A^H`` is the leading block
        ``G_e``; with ``D = G_e - I`` and ``F = D[:q]`` (``q`` the previous
        row end), ``|P^2 - P|^2 = tr(D G_e D G_e)``, a sum over the
        eigenvalues of ``G_e`` that also give the rank (the cluster test of
        :func:`projection_rank`), and ``|Q P - Q|^2 = tr(F^H G_q F G_e)``.
        Past and future rows partition ``R``, so ``P + P_future = R^H R``
        at every time and the complement residual is ``|G - I|``.
        """
        r = self.isometry.matrix
        gram = r @ r.conj().T
        eye = np.eye(gram.shape[0])
        complement = float(np.linalg.norm(gram - eye))
        out = []
        q = 0
        for e in self.row_ends:
            g = gram[:e, :e]
            vals = np.linalg.eigvalsh(g)
            idem = float(np.sqrt(np.sum(vals**2 * (vals - 1.0) ** 2)))
            f = g[:q] - eye[:q, :e]
            nest_sq = np.einsum("ij,ji->", f.conj().T @ g[:q, :q] @ f, g).real
            nest = float(np.sqrt(max(nest_sq, 0.0)))
            out.append((_cluster_rank(vals), idem, nest, complement))
            q = e
        return out


@dataclass(frozen=True)
class OrderingOperator:
    """Riemann–Stieltjes assembly ``sum(t_mid * increment)`` of the measure.

    Hermitian with spectrum inside ``[0, truncation_time]``; commutes with
    every projection in the generating family.  The finite window truncates
    the continuum operator's unbounded spectrum at ``truncation_time``.
    """

    matrix: LinOp
    time_grid: np.ndarray
    truncation_time: float

    def __post_init__(self):
        _freeze(self, "time_grid", np.float64)


def spectral_measure(
    model: IrreversibleModel, time_grid, snap: bool = False
) -> ProjectionFamily:
    """Past-projection family and interval increments on a lattice time grid.

    The grid must increase strictly from 0.  Only the row end of each time
    is computed here, capped at the row count once the shift has crossed
    the half window, where the past projection is the identity.
    """
    times = np.asarray(time_grid, dtype=np.float64)
    ks = np.minimum(_semigroup_index(model.grid, times, snap), model.grid.n_half())
    return ProjectionFamily(model.isometry, times, ks * model.grid.k_dim)


def assemble_T(family: ProjectionFamily) -> OrderingOperator:
    """Assemble the ordering operator ``T = R^H diag(m) R`` from a family.

    ``m`` is the midpoint of interval ``i`` on the rows of increment ``i``
    and 0 on the rows at or past the last time, so ``T`` is the sum of
    midpoint times increment.  It commutes with every projection in the
    family and its eigenvalues are exactly the interval midpoints, each with
    multiplicity equal to its increment's rank.
    """
    ends = family.row_ends
    mids = 0.5 * (family.times[1:] + family.times[:-1])
    m = np.zeros(family.isometry.matrix.shape[0])
    m[: ends[-1]] = np.repeat(mids, np.diff(ends))
    return OrderingOperator(
        matrix=_row_weighted(family.isometry, m),
        time_grid=family.times,
        truncation_time=float(family.times[-1]),
    )


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
    x_lambda: LinOp,
    time_grid,
    snap: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix elements of an observable in both pictures along a time grid.

    ``x_lambda`` is the observable's irreversible form, a :class:`LinOp`
    declared ``hermitian=True`` (checked when it was built; an undeclared one
    raises ``ValueError``), dense or diagonal; the reversible form is ``X =
    lam x_lambda lam``, never an inverse of ``lam``.  The grid is rounded
    once to lattice times (one warning per call under ``snap=True`` if any
    time moves) and both pictures are evaluated there.  Returns one array
    per quantity:

    * reversible ``(u(t)phi, X u(t)psi)``, taken as ``(lam u(t)phi,
      x_lambda lam u(t)psi)`` since ``lam`` is Hermitian;
    * irreversible ``(Z(t) lam phi, x_lambda Z(t) lam psi)``, with
      ``Z(t) lam psi = R^H T(t) R lam psi``;
    * the absolute differences.

    Each picture is one block per chunk of times (one column per time): one
    product of ``lam`` with the evolved states ``[u(t_k) psi]_k``, and one of
    ``R^H`` with the slices ``[T(t_k) R lam psi]_k``.  ``x_lambda`` acts on
    each block (O(N) a column if diagonal) and the elements are column-wise
    inner products.  ``Z(t) P(t) = Z(t)`` exactly, so the future projection
    ``P(t)`` is not formed.  When ``phi is psi`` the phi side reuses the psi
    side's blocks.
    """
    if phi.space is not Space.HALF_LINE_POS or psi.space is not Space.HALF_LINE_POS:
        raise ValueError("matrix elements take HALF_LINE_POS states")
    if x_lambda.domain is not Space.HALF_LINE_POS:  # hermitian: codomain too
        raise ValueError("x_lambda must act on the half-line space")
    if not x_lambda.hermitian:
        raise ValueError("the observable must be a LinOp declared hermitian")
    times = np.asarray(time_grid, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    ks = _semigroup_index(model.grid, times, snap)
    lam = model.lam
    same = phi is psi
    h_psi = _to_hardy(model, lam.apply(psi))
    h_phi = h_psi if same else _to_hardy(model, lam.apply(phi))

    def element(a, b):
        return np.einsum("ij,ij->j", a.conj(), x_lambda._act(b)) * psi.grid.delta_sigma

    rev = np.empty(times.size, dtype=np.complex128)
    irr = np.empty_like(rev)
    for cols in _column_chunks(ks.size):
        k = ks[cols]
        t = k * model.grid.delta_tau
        b = lam._act(_unitary_block(psi, t))
        a = b if same else lam._act(_unitary_block(phi, t))
        rev[cols] = element(a, b)
        b = _from_hardy(model, _toeplitz_block(h_psi, k))
        a = b if same else _from_hardy(model, _toeplitz_block(h_phi, k))
        irr[cols] = element(a, b)
    return rev, irr, np.abs(rev - irr)


def correspondence_check(
    model: IrreversibleModel, psi: StateVector, t: float, snap: bool = False
) -> tuple[float, float, float]:
    """Both sides of the expectation correspondence, with their gap.

    Returns ``(psi_t, M psi_t)`` from the reversible picture, taken
    matrix-free as ``|omega psi_t|^2``, the irreversible-picture value
    ``(psi_lam, P_future(t) psi_lam) = |Z(t) psi_lam|^2``, and their
    difference relative to the trajectory's initial expectation
    ``|lam psi|^2``.  Both pictures are evaluated at the lattice time
    ``k * delta_tau`` of ``t``, rounded once on entry when ``snap=True``.
    Both sides decay monotonically
    from that common initial value and the rounding error of the comparison
    scales with it, so it is the meaningful yardstick even at late times
    when both sides have decayed to the roundoff floor (where a pointwise
    quotient would be pure noise).
    """
    if psi.space is not Space.HALF_LINE_POS:
        raise ValueError("correspondence_check expects a HALF_LINE_POS state")
    t = _semigroup_index(model.grid, t, snap) * model.grid.delta_tau
    lhs = float(norm(apply_omega(unitary_evolve(psi, t))) ** 2)
    transported = model.lam.apply(psi)
    moved = z_evolve(model, transported, t)
    rhs = float(norm(moved) ** 2)
    denom = max(norm(transported) ** 2, np.finfo(float).tiny)
    return lhs, rhs, abs(lhs - rhs) / denom
