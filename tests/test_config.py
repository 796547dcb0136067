"""Config loading: the peak-memory estimate and the rejection of oversized runs.

No test here runs an oversized config: each is only loaded, or handed to a
command that ignores its sizes, so nothing is allocated if the check fails.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import timearrow.cli
from timearrow import _config
from timearrow._config import (
    DEFAULT_CONFIG,
    ConfigError,
    load_config,
    peak_memory_estimate,
    selftest_memory_estimate,
)
from timearrow.cli import main

OVERSIZED = [
    # (section, field, value, field named in the error)
    ("dense", "n_dense", 2**20, "dense.n_dense"),
    ("grid", "k_dim", 10**6, "dense.n_dense"),
    ("grid", "n_sigma", 2**40, "grid.n_sigma"),
]


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _with(section, field, value):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg[section][field] = value
    return cfg


@pytest.mark.parametrize("section, field, value, named", OVERSIZED)
def test_oversized_config_rejected_with_dotted_path(tmp_path, section, field,
                                                    value, named):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, _with(section, field, value)))
    [problem] = info.value.problems
    assert problem.startswith(f"{named}: the run needs about ")
    assert "physical memory" in problem


@pytest.mark.parametrize("section, field, value, named", OVERSIZED)
def test_oversized_config_exits_2(tmp_path, section, field, value, named):
    # convergence pins its own grids, so a missed rejection would run small
    path = _write(tmp_path, _with(section, field, value))
    res = CliRunner().invoke(main, ["convergence", "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert f"config error: {named}: " in res.output
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("n_dense, measured_mb", [(512, 69.2), (1024, 168.0)])
def test_estimate_bounds_measured_peaks(n_dense, measured_mb):
    # peak RSS of projection-family (512) and matrix-element (1024), one
    # BLAS thread, default config otherwise
    need, field = peak_memory_estimate(_with("dense", "n_dense", n_dense))
    assert field == "dense.n_dense"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


def test_default_config_is_valid(tmp_path):
    assert load_config(_write(tmp_path, DEFAULT_CONFIG)) == DEFAULT_CONFIG


def test_benchmark_pool_configs_are_valid(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", path)
    scenarios = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, scenarios)
    spec.loader.exec_module(scenarios)
    for name, workload in scenarios.WORKLOADS.items():
        for j in range(scenarios.POOL_SIZE):
            cfg = workload.config(j)
            assert load_config(_write(tmp_path, cfg)) == cfg, (name, j)


@pytest.mark.parametrize("n_dense, measured_mb", [(256, 79.0), (512, 175.0)])
def test_selftest_estimate_bounds_measured_peaks(n_dense, measured_mb):
    # peak RSS of selftest, one BLAS thread, when criterion 1 still held its
    # dense 0/1 diagonals; the current peaks are in _config's comment, and
    # the estimate bounds them too
    need = selftest_memory_estimate(_with("dense", "n_dense", n_dense))
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


def test_oversized_selftest_exits_2(tmp_path, monkeypatch):
    # with 1 GiB of memory, n_dense 2048 passes the scenario estimate but
    # not the selftest one; run_all is stubbed so a missed rejection fails
    # the test instead of allocating
    monkeypatch.setattr(_config, "_physical_memory", lambda: 2**30)

    def must_not_run(**kwargs):
        raise AssertionError("selftest ran past the memory check")

    monkeypatch.setattr(timearrow.cli, "run_all", must_not_run)
    path = _write(tmp_path, _with("dense", "n_dense", 2048))
    assert load_config(path)["dense"]["n_dense"] == 2048
    res = CliRunner().invoke(main, ["selftest", "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "config error: dense.n_dense: selftest needs about " in res.output
    assert not (tmp_path / "selftest.json").exists()
