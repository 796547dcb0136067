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
* :func:`round_trip_leakage` is the guard-band leakage of a HARDY_PLUS
  state's full time profile, embedded and transformed back, where the
  library reads it off the state's own amplitudes.
* :func:`dense_polar_factors` assembles the dense ``lam`` and ``R`` per bin
  from the model's eigenvector halves, with ``lam``'s phases ``conj(d_i) d_j
  = i^(i - j)`` set exactly, where the library applies both as factored
  operators and builds their dense forms from floating-point phase vectors.

:func:`perturbed_model` is not an oracle but a test input: a model whose
halves are moved off orthogonality, so that the residuals that vanish to
rounding on the built model have digits to compare.
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
    to_time,
    toeplitz_step,
)
from timearrow.evolution import _semigroup_index, _toeplitz_block
from timearrow.hardy import TimeProfile, _phase_factors, _tau_to_sigma
from timearrow.lambda_transform import IrreversibleModel


def fiberize(block: np.ndarray, k_dim: int) -> np.ndarray:
    """``kron(block, I_k)``: fibres interleaved, every fibre acted on alike."""
    return block if k_dim == 1 else np.kron(block, np.eye(k_dim))


def perturbed_model(model: IrreversibleModel, eps: float) -> IrreversibleModel:
    """``model`` with each eigenvector half moved by ``eps`` times a seeded
    real normal matrix: ``R`` and ``lam`` stay factored, but ``R R^H - I`` is
    of order ``eps``."""
    rng = np.random.default_rng(31)
    halves = tuple(y + eps * rng.normal(size=y.shape) for y in model.halves)
    return IrreversibleModel(model.grid, halves, model.sigma, model.d, model.gamma)


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
    ``Q diag(c) Q^T`` from half-size real products, then the phases.  ``lam``
    is Hermitian bit for bit: its real blocks are symmetrized and its phases
    are the exact powers of ``i``."""
    y_even, y_odd = model.lam.halves
    h = y_even.shape[0]
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


def from_time(p: TimeProfile) -> StateVector:
    """Inverse of :func:`timearrow.to_time`."""
    f = _tau_to_sigma(p.grid, p.fibered())
    return StateVector(p.grid, Space.FULL_LINE, f.reshape(-1))


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
    return guard_band_leakage(to_time(hardy_embed(h)))
