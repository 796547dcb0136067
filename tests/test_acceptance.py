"""Acceptance battery: every shipped check at its stated tolerance.

The battery runs once per session (the ``battery`` fixture); each criterion
then gets its own test so a failure pinpoints the broken guarantee.  Every
check rounds its own times to the lattice, since an off-lattice time raises,
and any ``UserWarning`` fails the suite (see ``filterwarnings`` in
``pyproject.toml``).
"""

import pytest

from timearrow.selftest import CHECKS

_IDS = [f"{num:02d}_{fn.__name__.removeprefix('check_')}" for num, *_, fn in CHECKS]


@pytest.fixture()
def by_criterion(battery):
    return {r.criterion: r for r in battery}


@pytest.mark.parametrize("number", [num for num, *_ in CHECKS], ids=_IDS)
def test_criterion(by_criterion, number):
    result = by_criterion[number]
    assert result.passed, result.summary()


def test_battery_is_complete(by_criterion):
    assert sorted(by_criterion) == list(range(1, 13))
    assert all(r.tier in ("algebraic", "continuum") for r in by_criterion.values())
