"""Independent routes to facts the library computes another way.

No command or selftest check reaches these; the tests compare the library's
production route against them.  Each is the literal form of its fact:

* :func:`past_projection` is the commutator ``[Z(t), Z*(t)] = R^H (S S^H -
  S^H S) R``, with weight ``+1`` on the first and ``-1`` on the last ``e``
  rows.  The finite window clips the far edge, so it is an exact projection
  only on states whose transport stays clear of that edge (guard-banded
  states); there it agrees with the complement ``I - Z*(t) Z(t)``, as it
  does in the continuum model.
* :func:`lyapunov_expectation` is ``|T_u(t) omega psi|^2``, one shifted slice
  of the forward image, where ``lyapunov_curve`` reads a reverse cumulative
  sum.
* :func:`fiberize` is ``kron(block, I_k)``, the full-space matrix of an
  operator that the library stores per bin and applies to every fibre by
  reshaping.
* :func:`toeplitz_adjoint` is ``T*(t)``, the zero-padded right shift, which
  the library applies to blocks as ``_toeplitz_block`` with ``-k``.
* :func:`offset_dft` is the sigma <-> tau transform pair written out of
  place, one new array per step, where the library transforms one buffer
  in place.
* :func:`time_samples` and :func:`from_time` are that pair on a state's
  flat array of time samples, where every public function of the library
  takes and returns states.
* :func:`projection` and :func:`increment` are a family's past projection
  and interval measure as dense matrices on rows of ``R``, where the library
  reads the family's residuals off the real defect and forms neither.
* :func:`round_trip_leakage` is the guard-band leakage of a HARDY_PLUS
  state's full time profile, embedded and transformed back, where the
  library reads it off the state's own amplitudes.
* :func:`complex_isometry_defects` is ``|R^H R - I|``, ``|R R^H - I|`` and
  ``|Z(0) - I|`` from complex products of the dense ``R`` on the full space
  and from ``z_matrix``, where the selftest reads the norm of the real
  defect ``D* R R^H D - I``, lifted by ``sqrt(k_dim)``.
* :func:`composition_law` is ``Z(a delta_tau) Z(b delta_tau) - Z((a + b)
  delta_tau)`` from three dense ``z_matrix`` calls and one complex product,
  where the selftest reads the norm of the block ``[a:, :n-b]`` of the real
  defect, lifted by ``sqrt(k_dim)``; the two agree exactly when ``R`` is
  unitary.
* :func:`fibre_ordering_spectrum` is the spectrum of one fibre's block of
  ``T`` from one ``E x E`` eigensolve of ``S (I + D) S`` (``S^2`` the
  midpoint weights, ``D`` the real defect), where ``projection-family``
  reads ``T``'s extremes off the midpoints, within the Weyl radius
  ``times[-1] |D|``.
* :func:`two_pass_curve` is the guard-band leakage and the expectations of
  ``lyapunov_curve``, each squaring the forward image on its own, where the
  library squares it once for both.
* :func:`dense_polar_factors` assembles the dense ``lam`` and ``R`` per bin
  from the two eigenvector halves, which it reads off the model's one matrix
  ``v`` by the parity rule itself (the even half ``v`` with its columns
  reversed, the odd half ``S v``), with ``lam``'s phases ``conj(d_i) d_j =
  i^(i - j)`` set exactly, where the library applies both as factored
  operators and builds their dense forms from floating-point phase vectors.

:func:`perturbed_model` is not an oracle but a test input: a model whose
eigenvector matrix ``v`` is moved off orthogonality, so that the residuals
that vanish to rounding on the built model have digits to compare.  Both
halves are read off the one moved ``v``, so they move together.
"""

import numpy as np

from timearrow import (
    LinOp,
    Space,
    SpaceMismatchError,
    StateVector,
    apply_omega,
    guard_band_leakage,
    hardy_embed,
    norm,
    restrict,
    toeplitz_step,
    z_matrix,
)
from timearrow.evolution import _semigroup_index, _toeplitz_block
from timearrow.hardy import _phase_factors, _sigma_to_tau, _tau_to_sigma
from timearrow.lambda_transform import IrreversibleModel
from timearrow.ordering import ProjectionFamily, _row_weighted


def fiberize(block: np.ndarray, k_dim: int) -> np.ndarray:
    """``kron(block, I_k)``: fibres interleaved, every fibre acted on alike."""
    return block if k_dim == 1 else np.kron(block, np.eye(k_dim))


def perturbed_model(model: IrreversibleModel, eps: float) -> IrreversibleModel:
    """``model`` with its eigenvector matrix ``v`` moved by ``eps`` times a
    seeded real normal matrix: ``R`` and ``lam`` stay factored, but ``R R^H -
    I`` is of order ``eps``."""
    rng = np.random.default_rng(31)
    v = model.v + eps * rng.normal(size=model.v.shape)
    return IrreversibleModel(model.grid, v, model.sigma, model.d, model.gamma)


def toeplitz_adjoint(f: StateVector, t: float) -> StateVector:
    """Adjoint of :func:`timearrow.toeplitz_step`: backward evolution
    restricted back, the zero-padded right shift ``out[j + k] = f[j]`` of the
    time samples.  It drops whatever crosses the far window edge, so it is
    isometric exactly on states with no power near that edge."""
    if f.space is not Space.HARDY_PLUS:
        raise SpaceMismatchError("Toeplitz operators act on HARDY_PLUS states")
    h = _toeplitz_block(f.grid, f.amplitudes, -_semigroup_index(f.grid, t))
    return StateVector(f.grid, Space.HARDY_PLUS, h)


def past_projection(model: IrreversibleModel, t: float) -> LinOp:
    """Projection onto the states the semigroup has killed by lattice time
    ``t``, as the literal commutator (see the module note) on the dense ``R``;
    zero at ``t = 0``."""
    e = _semigroup_index(model.grid, t) * model.grid.k_dim
    r = model.isometry.matrix
    rows = np.arange(r.shape[0])
    d = (rows < rows.size - e).astype(np.float64) - (rows >= e)
    m = (r.conj().T * d) @ r
    return LinOp(model.grid, Space.HALF_LINE_POS, Space.HALF_LINE_POS,
                 0.5 * (m + m.conj().T), hermitian=True)


def dense_polar_factors(model: IrreversibleModel) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, R)`` as dense ``n x n`` matrices from the halves ``y`` and the
    singular values that the model stores: each block of the persymmetric
    ``Q diag(c) Q^T`` from half-size real products, then the phases.  The
    halves are copies made by the parity rule: ``v`` reversed and ``S v``,
    ``S = diag((-1)^j)``.  ``lam`` is Hermitian bit for bit: its real blocks
    are symmetrized and its phases are the exact powers of ``i``."""
    h = model.v.shape[0]
    y_even = np.ascontiguousarray(model.v[:, ::-1])
    y_odd = model.v * ((-1.0) ** np.arange(h))[:, None]
    nh = 2 * h
    s_even, s_odd = model.lam.c[:h], model.lam.c[h:]
    alt = (-1.0) ** np.arange(h)
    w = 0.5 * ((y_even * alt) @ y_even.T - 1j * ((y_odd * alt) @ y_odd.T))
    l_even = (y_even * s_even) @ y_even.T
    l_odd = (y_odd * s_odd) @ y_odd.T
    l_even = 0.5 * (l_even + l_even.T)
    l_odd = 0.5 * (l_odd + l_odd.T)

    def persymmetric(b, c):  # [[B, C J], [J C, J B J]]
        out = np.empty((nh, nh), dtype=np.complex128)
        out[:h, :h], out[:h, h:] = b, c[:, ::-1]
        out[h:, :h], out[h:, h:] = c[::-1], b[::-1, ::-1]
        return out

    r = persymmetric(w, w.conj())
    lam = persymmetric(0.5 * (l_even + l_odd), 0.5 * (l_even - l_odd))
    d = np.exp(-0.5j * np.pi * (np.arange(nh) + 0.5 - nh / 2))
    r *= (np.exp(-0.25j * np.pi * nh) * d)[:, None]
    r *= d
    for a in range(4):
        for b in range(4):
            lam[a::4, b::4] *= 1j ** ((a - b) % 4)
    return lam, r


def complex_isometry_defects(model: IrreversibleModel) -> tuple[float, float, float]:
    """``(|R^H R - I|, |R R^H - I|, |Z(0) - I|)``, Frobenius norms of complex
    ``N x N`` matrices on the full space."""
    r = model.isometry.matrix
    eye = np.eye(r.shape[0])
    products = (r.conj().T @ r, r @ r.conj().T, z_matrix(model, 0.0))
    return tuple(float(np.linalg.norm(m - eye)) for m in products)


def composition_law(model: IrreversibleModel, a: int, b: int) -> np.ndarray:
    """``Z(a) Z(b) - Z(a + b)`` at lattice indices ``a`` and ``b``, as a dense
    matrix on the full space."""
    dt = model.grid.delta_tau
    two = z_matrix(model, a * dt) @ z_matrix(model, b * dt)
    return two - z_matrix(model, (a + b) * dt)


def fibre_ordering_spectrum(family: ProjectionFamily) -> np.ndarray:
    """Ascending eigenvalues of one fibre's block of ``T``, without ``T``:
    ``S (I + defect) S`` on the first ``E`` rows (``S^2 = M``), and zeros.
    :func:`assemble_T`'s spectrum is these, each ``k_dim`` times."""
    e, d = family.row_ends[-1], family.defect
    mids = 0.5 * (family.times[1:] + family.times[:-1])
    w = np.repeat(mids, np.diff(family.row_ends))
    s = np.sqrt(w)
    m = s[:, None] * d[:e, :e]
    m *= s
    m.flat[:: e + 1] += w
    vals = np.concatenate([np.linalg.eigvalsh(m), np.zeros(d.shape[0] - e)])
    return np.sort(vals)


def two_pass_curve(psi: StateVector, ks: np.ndarray) -> tuple[float, np.ndarray]:
    """Guard-band leakage and expectations at lattice indices ``ks`` of the
    forward image ``b`` (a nonzero state's): its power per time bin ``tau >=
    0`` in the outer 10% of the window, over the total, for the one, and
    ``|b|^2 delta_sigma`` per bin, summed in reverse, for the other."""
    grid, b = psi.grid, apply_omega(psi).fibered()
    profile = np.sum(np.abs(b) ** 2, axis=1)
    outer = np.abs(grid.tau()[grid.n_half():]) >= 0.9 * (grid.t_window / 2.0)
    leakage = float(np.sum(profile[outer]) / float(np.sum(profile)))
    power = (np.abs(b) ** 2 * grid.delta_sigma).sum(axis=1)
    tail = np.append(np.cumsum(power[::-1])[::-1], 0.0)
    return leakage, tail[np.minimum(ks, power.size)]


def lyapunov_expectation(psi: StateVector, t: float) -> float:
    """Expectation ``(psi_t, M psi_t)`` at lattice time ``t`` as ``|T_u(t)
    omega psi|^2``: non-increasing in ``t`` and bounded by ``|psi|^2``."""
    return norm(toeplitz_step(apply_omega(psi), t)) ** 2


def apply_omega_adjoint(h: StateVector) -> StateVector:
    """Matrix-free adjoint of the forward map: include the Hardy state in the
    full line, then restrict to positive frequencies."""
    return restrict(hardy_embed(h))


def f_m_membership(psi: StateVector, m: float) -> bool:
    """Whether ``psi`` lies in the ordering set of level ``m``.

    True iff the normalized expectation ``(psi, M psi)/|psi|^2`` is at most
    ``m``.  The sets nest by construction, every state belongs at ``m = 1``
    (contractivity), and none at ``m = 0`` (injectivity); forward evolution
    never leaves a set.
    """
    if psi.space is not Space.HALF_LINE_POS:
        raise ValueError("f_m_membership expects a HALF_LINE_POS state")
    ns = norm(psi) ** 2
    if ns == 0.0:
        raise ValueError("membership is undefined for the zero state")
    return float(norm(apply_omega(psi)) ** 2) / ns <= m


def project_halfline(f: StateVector, side: str) -> StateVector:
    """Sharp spectral cut of a FULL_LINE state: zero every bin on the
    opposite energy half-line; ``side`` is ``"pos"`` or ``"neg"``."""
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("project_halfline acts on FULL_LINE states")
    if side not in ("pos", "neg"):
        raise ValueError(f"side must be 'pos' or 'neg', got {side!r}")
    a = f.fibered().copy()
    half = f.grid.n_sigma // 2
    if side == "pos":
        a[:half, :] = 0.0
    else:
        a[half:, :] = 0.0
    return StateVector(f.grid, Space.FULL_LINE, a.reshape(-1))


def time_samples(f: StateVector) -> np.ndarray:
    """A full-line state's samples on the dual time lattice, the C-order
    flattening of an ``(n_sigma, k_dim)`` array over the bins ``tau_k``; the
    squared norm is ``sum(|samples|^2) delta_tau`` (Parseval)."""
    if f.space is not Space.FULL_LINE:
        raise SpaceMismatchError("time_samples acts on FULL_LINE states")
    return _sigma_to_tau(f.grid, f.fibered()).reshape(-1)


def from_time(grid, samples: np.ndarray) -> StateVector:
    """Inverse of :func:`time_samples`."""
    f = _tau_to_sigma(grid, np.reshape(samples, (-1, grid.k_dim)))
    return StateVector(grid, Space.FULL_LINE, f.reshape(-1))


def projection(family: ProjectionFamily, i: int) -> LinOp:
    """The family's past projection ``R[:e_i]^H R[:e_i]`` at ``times[i]``."""
    return _row_weighted(family.isometry, 0, family.row_ends[i])


def increment(family: ProjectionFamily, i: int) -> LinOp:
    """The family's measure of ``(times[i], times[i+1]]``, ``R[e_i:e_{i+1}]^H
    R[e_i:e_{i+1}]``."""
    return _row_weighted(family.isometry, family.row_ends[i], family.row_ends[i + 1])


def adjoint(op: LinOp) -> LinOp:
    """The conjugate transpose, the adjoint for every space tag's quadrature."""
    return LinOp(op.grid, op.codomain, op.domain, op._entries.conj().T,
                 hermitian=op.hermitian)


def offset_dft(grid, f: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``c s w * FFT(w * f)`` down the rows of an ``(n_sigma, m)`` block, or
    its inverse, with a new array for every product."""
    w, s, c = _phase_factors(grid)
    if inverse:
        wc = np.conj(w)[:, None]
        return (1.0 / (c * s)) * (wc * np.fft.ifft(wc * f, axis=0))
    return (c * s) * (w[:, None] * np.fft.fft(w[:, None] * f, axis=0))


def round_trip_leakage(h: StateVector) -> float:
    """Guard-band leakage of a HARDY_PLUS state through its full-line
    embedding and back: one IFFT and one FFT."""
    if h.space is not Space.HARDY_PLUS:
        raise SpaceMismatchError("round_trip_leakage acts on HARDY_PLUS states")
    return guard_band_leakage(hardy_embed(h))
