"""Reproducible random test-state families.

Shift-based identities of the discrete model are exact only on states whose
time profile keeps clear of the window edges, and the quadrature cross-check
of the Hardy projection needs profiles that also clear the tau = 0 cut.
These generators produce the three families the test suites and the selftest
sweeps draw from; all take an explicit ``numpy.random.Generator`` so runs are
reproducible from a seed.

Every state is a small sum of Gaussian wavepackets

    a * exp(-(sigma - c)^2 / (4 w^2)) * exp(i tau0 sigma),

i.e. an energy-space Gaussian of width ``w`` centered at ``c`` whose time
profile is centered at ``tau0`` with width ``~1/w``.  The parameter boxes
guarantee the guard-band and cut-clearance margins.
"""

from __future__ import annotations

import numpy as np

from .spaces import GridSpec, Space, StateVector

__all__ = [
    "random_guarded_state",
    "compact_profile_state",
    "smooth_oracle_state",
]


def _packet_sum(
    sigma: np.ndarray,
    k_dim: int,
    rng: np.random.Generator,
    n_terms: int,
    width_lo: float,
    width_hi: float,
    center_lo,
    center_hi,
    tau0_lo: float,
    tau0_hi: float,
) -> np.ndarray:
    out = np.zeros((sigma.size, k_dim), dtype=np.complex128)
    for _ in range(n_terms):
        w = rng.uniform(width_lo, width_hi)
        c = rng.uniform(center_lo(w), center_hi(w))
        tau0 = rng.uniform(tau0_lo, tau0_hi)
        a = rng.standard_normal() + 1j * rng.standard_normal()
        # a * exp(i tau0 sigma) * gaussian, built in one complex buffer
        packet = np.multiply(1j * tau0, sigma)
        np.exp(packet, out=packet)
        packet *= np.exp(-((sigma - c) ** 2) / (4.0 * w * w))
        np.multiply(a, packet, out=packet)
        if k_dim == 1:
            out[:, 0] += packet
        else:
            v = rng.standard_normal(k_dim) + 1j * rng.standard_normal(k_dim)
            v /= np.linalg.norm(v)
            out += packet[:, None] * v[None, :]
    return out


def _normalized(grid: GridSpec, space: Space, amps: np.ndarray) -> StateVector:
    flat = amps.reshape(-1)
    scale = np.sqrt(np.sum(np.abs(flat) ** 2) * grid.delta_sigma)
    return StateVector(grid, space, flat / scale)


def random_guarded_state(
    grid: GridSpec, rng: np.random.Generator, n_terms: int = 4
) -> StateVector:
    """Unit-norm half-line state with a guard-banded time profile.

    Packet widths in [0.5, 2]; energy centers keep ``10 w`` clearance from
    both ends of the positive half-line, and profile centers stay within
    ``t_window/20`` of zero, leaving the outer band of the window empty to
    ~1e-16 of the norm.
    """
    sigma = grid.sigma_pos()
    amps = _packet_sum(
        sigma,
        grid.k_dim,
        rng,
        n_terms,
        0.5,
        2.0,
        lambda w: 10.0 * w,
        lambda w: grid.sigma_max - 10.0 * w,
        -grid.t_window / 20.0,
        grid.t_window / 20.0,
    )
    return _normalized(grid, Space.HALF_LINE_POS, amps)


def compact_profile_state(
    grid: GridSpec, rng: np.random.Generator, n_terms: int = 4
) -> StateVector:
    """Guard-banded half-line state whose profile sits at small positive time.

    Same construction as :func:`random_guarded_state` but with profile
    centers in ``[t_window/40, t_window/20]``, so essentially all of the
    forward image's time support lies in a short early stretch of the
    window — the family used for decay-to-zero checks, which need the
    profile gone long before the half-window horizon.
    """
    sigma = grid.sigma_pos()
    amps = _packet_sum(
        sigma,
        grid.k_dim,
        rng,
        n_terms,
        0.5,
        2.0,
        lambda w: 10.0 * w,
        lambda w: grid.sigma_max - 10.0 * w,
        grid.t_window / 40.0,
        grid.t_window / 20.0,
    )
    return _normalized(grid, Space.HALF_LINE_POS, amps)


def smooth_oracle_state(grid: GridSpec, rng: np.random.Generator) -> StateVector:
    """Full-line single Gaussian suitable for the quadrature cross-check.

    The principal-value rule behind :func:`~timearrow.hardy.
    hardy_project_oracle` is second-order in the bin width with an error
    controlled by the state's curvature and by how much time-profile mass
    touches the tau = 0 cut.  Widths in [1.5, 2] and profile centers in
    [1.8, 2.8] keep both error sources at the few-1e-4 level on mid-sized
    grids, well below the 1e-3 agreement target.
    """
    sigma = grid.sigma()
    w = rng.uniform(1.5, 2.0)
    c = rng.uniform(-10.0, 10.0)
    tau0 = rng.uniform(1.8, 2.8)
    a = (0.5 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
    packet = a * np.exp(-((sigma - c) ** 2) / (4.0 * w * w)) * np.exp(1j * tau0 * sigma)
    if grid.k_dim == 1:
        amps = packet[:, None]
    else:
        v = rng.standard_normal(grid.k_dim) + 1j * rng.standard_normal(grid.k_dim)
        v /= np.linalg.norm(v)
        amps = packet[:, None] * v[None, :]
    return StateVector(grid, Space.FULL_LINE, amps.reshape(-1))
