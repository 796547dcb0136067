"""Acceptance battery: every shipped check at its stated tolerance.

The battery runs once per module; each criterion then gets its own test so a
failure pinpoints the broken guarantee.  One summary line per criterion is
printed as it completes (visible with ``pytest -v``, unbuffered by capture).
An ``OffLatticeWarning`` fails the battery: every check snaps its own times.
"""

import warnings

import pytest

from timearrow import OffLatticeWarning
from timearrow.selftest import CHECKS, run_all

_IDS = [f"{num:02d}_{fn.__name__.removeprefix('check_')}" for num, *_, fn in CHECKS]

_CACHE = {}


@pytest.fixture()
def battery(capsys):
    if not _CACHE:
        with capsys.disabled(), warnings.catch_warnings():
            warnings.simplefilter("error", OffLatticeWarning)
            print()
            results = run_all(progress=lambda r: print(r.summary()))
        _CACHE.update({r.criterion: r for r in results})
    return _CACHE


@pytest.mark.parametrize("number", [num for num, *_ in CHECKS], ids=_IDS)
def test_criterion(battery, number):
    result = battery[number]
    assert result.passed, result.summary()


def test_battery_is_complete(battery):
    assert sorted(battery) == list(range(1, 13))
    assert all(r.tier in ("algebraic", "continuum") for r in battery.values())
