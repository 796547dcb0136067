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
    with pytest.raises(ValueError, match="the packets vanish on the grid"):
        family(make_grid(1024, 1e6, 1), np.random.default_rng(1234))
