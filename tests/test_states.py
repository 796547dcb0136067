"""The guarded packet rule: the domain it checks for both families."""

import numpy as np
import pytest

from timearrow import make_grid, norm
from timearrow.states import compact_profile_state, random_guarded_state

FAMILIES = [random_guarded_state, compact_profile_state]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(5))
def test_sigma_max_below_40_is_rejected_for_every_seed(family, seed):
    # widths reach 2 and centers stay 10 widths clear of both ends, so below
    # 40 the box is empty at w = 2: no seed gets through, lucky or not
    with pytest.raises(ValueError, match=r"need sigma_max >= 40 .*, got 39$"):
        family(make_grid(1024, 39.0, 1), np.random.default_rng(seed))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k_dim", [1, 3])
def test_sigma_max_40_serves_every_seed(family, k_dim):
    grid = make_grid(1024, 40.0, k_dim)
    for seed in range(10):
        assert abs(norm(family(grid, np.random.default_rng(seed))) - 1.0) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_packets_that_vanish_on_the_grid_are_rejected(family):
    # bins about 2000 wide against packets 0.5 to 2 wide: the sum is zero on
    # every bin, and normalizing it would give NaN amplitudes
    with pytest.raises(ValueError, match="need bins at most pi x 0.5 wide"):
        family(make_grid(1024, 1e6, 1), np.random.default_rng(1234))


@pytest.mark.parametrize("family", FAMILIES)
def test_bins_wider_than_pi_times_the_narrowest_width_are_rejected(family):
    # the half window pi / delta_sigma must hold the narrowest packet's time
    # profile exp(-w^2 tau^2), w = 0.5, out to its 1/e point 1/w: bins at most
    # pi w = 1.571 wide.  At sigma_max 1e4 (bins 20 wide) every seed would
    # otherwise pass, leaking a tenth of the profile into the guard band
    grid = make_grid(1024, 1e4, 1)
    for seed in range(5):
        with pytest.raises(ValueError, match=r"at n_sigma 1024, sigma_max at most "
                                             r"804\.248, got 10000$"):
            family(grid, np.random.default_rng(seed))


@pytest.mark.parametrize("family", FAMILIES)
def test_bins_pi_times_the_narrowest_width_are_served(family):
    # the largest sigma_max at n_sigma 128 with bins at most pi / 2 wide,
    # and the n_dense 64 grid that the command-line tests draw states on
    for sigma_max in (np.pi * 0.5 * 64, 50.0):
        grid = make_grid(128, sigma_max, 1)
        assert abs(norm(family(grid, np.random.default_rng(0))) - 1.0) < 1e-12
