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
profile is centered at ``tau0`` with width ``~1/w``.  The two guarded
families share one packet rule and differ only in their profile window.
"""

from __future__ import annotations

import numpy as np

from .spaces import GridSpec, Space, StateVector

__all__ = ["random_guarded_state", "compact_profile_state", "smooth_oracle_state"]


def _on_fibres(packet: np.ndarray, rng: np.random.Generator, k_dim: int) -> np.ndarray:
    """``packet`` along a random unit fibre vector, as an (n, k_dim) array;
    none is drawn at ``k_dim == 1``."""
    if k_dim == 1:
        return packet[:, None]
    v = rng.standard_normal(k_dim) + 1j * rng.standard_normal(k_dim)
    v /= np.linalg.norm(v)
    return packet[:, None] * v[None, :]


def _packets(grid: GridSpec, rng, n_terms: int, tau0_lo, tau0_hi) -> StateVector:
    """Unit-norm sum of ``n_terms`` guarded packets on the positive half-line.

    Widths in [0.5, 2], energy centers ``10 w`` clear of both ends of the
    half-line, profile centers in ``[tau0_lo, tau0_hi]``.  ValueError if
    ``sigma_max < 40`` (the box at ``w = 2``, empty for every seed) or if
    the packets vanish on the grid (bins far wider than the packets).
    """
    if not grid.sigma_max >= 40.0:
        raise ValueError(
            "guarded packets need sigma_max >= 40 (centers 10 w clear of both "
            f"ends, widths up to 2), got {grid.sigma_max:g}"
        )
    sigma = grid.sigma_pos()
    out = np.zeros((sigma.size, grid.k_dim), dtype=np.complex128)
    for _ in range(n_terms):
        w = rng.uniform(0.5, 2.0)
        c = rng.uniform(10.0 * w, grid.sigma_max - 10.0 * w)
        tau0 = rng.uniform(tau0_lo, tau0_hi)
        a = rng.standard_normal() + 1j * rng.standard_normal()
        # a * exp(i tau0 sigma) * gaussian, built in one complex buffer
        packet = np.multiply(1j * tau0, sigma)
        np.exp(packet, out=packet)
        packet *= np.exp(-((sigma - c) ** 2) / (4.0 * w * w))
        np.multiply(a, packet, out=packet)
        out += _on_fibres(packet, rng, grid.k_dim)
        del packet  # not held through the norm's temporaries below
    flat = out.reshape(-1)
    scale = np.sqrt(np.sum(np.abs(flat) ** 2) * grid.delta_sigma)
    if not scale > 0:
        raise ValueError(
            f"the packets vanish on the grid: its bins, {grid.delta_sigma:g} "
            f"wide at sigma_max {grid.sigma_max:g}, miss packets 0.5 to 2 wide"
        )
    return StateVector(grid, Space.HALF_LINE_POS, flat / scale)


def random_guarded_state(
    grid: GridSpec, rng: np.random.Generator, n_terms: int = 4
) -> StateVector:
    """Unit-norm half-line state with a guard-banded time profile.

    Profile centers stay within ``t_window/20`` of zero, leaving the outer
    band of the window empty to ~1e-16 of the norm.  ValueError if
    ``sigma_max < 40`` or if the bins are too wide to see the packets.
    """
    return _packets(grid, rng, n_terms, -grid.t_window / 20.0, grid.t_window / 20.0)


def compact_profile_state(
    grid: GridSpec, rng: np.random.Generator, n_terms: int = 4
) -> StateVector:
    """Guard-banded half-line state whose profile sits at small positive time.

    The packets of :func:`random_guarded_state` with profile centers in
    ``[t_window/40, t_window/20]``, so essentially all of the forward
    image's time support lies in a short early stretch of the window — the
    family used for decay-to-zero checks, which need the profile gone long
    before the half-window horizon.
    """
    return _packets(grid, rng, n_terms, grid.t_window / 40.0, grid.t_window / 20.0)


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
    amps = _on_fibres(packet, rng, grid.k_dim)
    return StateVector(grid, Space.FULL_LINE, amps.reshape(-1))
