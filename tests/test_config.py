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
def test_oversized_config_exits_2(tmp_path, monkeypatch, section, field, value,
                                  named):
    # the dense-tier sizes go to projection-family, with build_model stubbed
    # so a missed rejection fails the test instead of allocating; convergence
    # pins its own grids, so a missed n_sigma rejection would run small
    def must_not_run(grid):
        raise AssertionError("the model was built past the memory check")

    monkeypatch.setattr(timearrow.cli, "build_model", must_not_run)
    command, stem = (("convergence", "convergence") if named == "grid.n_sigma"
                     else ("projection-family", "projection_family"))
    path = _write(tmp_path, _with(section, field, value))
    res = CliRunner().invoke(main, [command, "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert f"config error: {named}: " in res.output
    assert not (tmp_path / f"{stem}.csv").exists()


# peak RSS in MB of each command at n_dense 512 / 1024 / 2048 / 4096, one BLAS
# thread, default config otherwise (the peaks in _config's comment);
# projection-family's from a child spawned by a parent without numpy, as the
# child's ru_maxrss starts from its parent's peak
MEASURED_PEAKS_MB = {
    "projection-family": (37.7, 52.0, 108.1, 295.6),
    "matrix-element": (40.9, 49.4, 81.8, 198.8),
    "semigroup-norms": (41.6, 50.5, 82.6, 205.4),
}
# projection-family over the full half window, t_max = n_dense / 32, where the
# residual loop's E x E blocks are n_dense x n_dense
FULL_WINDOW_PEAKS_MB = (41.5, 68.0, 171.5, 485.8)


@pytest.mark.parametrize("command, n_dense, t_max, measured_mb", [
    pytest.param(command, n_dense, None, mb, id=f"{n_dense}-{mb}")
    for command, peaks in MEASURED_PEAKS_MB.items()
    for n_dense, mb in zip((512, 1024, 2048, 4096), peaks)
] + [
    pytest.param("projection-family", n_dense, n_dense / 32, mb,
                 id=f"{n_dense}-full-window-{mb}")
    for n_dense, mb in zip((512, 1024, 2048, 4096), FULL_WINDOW_PEAKS_MB)
])
def test_estimate_bounds_measured_peaks(command, n_dense, t_max, measured_mb):
    cfg = _with("dense", "n_dense", n_dense)
    if t_max is not None:
        cfg["times"]["t_max"] = t_max
    need, field = peak_memory_estimate(cfg, command)
    assert field == "dense.n_dense"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


# peak RSS in MB of lyapunov-curve at n_sigma 2^18 / 2^19 / 2^20, one BLAS
# thread, default config otherwise, per k_dim (the peaks in _config's comment)
CURVE_PEAKS_MB = {1: (57.1, 77.2, 117.2), 8: (111.2, 185.1, 333.3)}


@pytest.mark.parametrize("k_dim, n_sigma, measured_mb", [
    pytest.param(k_dim, n_sigma, mb, id=f"k{k_dim}-{n_sigma}-{mb}")
    for k_dim, peaks in CURVE_PEAKS_MB.items()
    for n_sigma, mb in zip((2**18, 2**19, 2**20), peaks)
])
def test_estimate_bounds_measured_curve_peaks(k_dim, n_sigma, measured_mb):
    cfg = _with("grid", "n_sigma", n_sigma)
    cfg["grid"]["k_dim"] = k_dim
    need, field = peak_memory_estimate(cfg, "lyapunov-curve")
    assert field == "grid.n_sigma"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


def test_estimate_is_per_command(tmp_path, monkeypatch):
    # with 400 MiB of memory, n_dense 4096 fits the one complex n x n of
    # matrix-element and semigroup-norms (313 MiB estimated), not the real
    # defect of projection-family and its build (442 MiB), which a command
    # not named is charged too; lyapunov-curve and convergence build no dense
    # model, so they are charged nothing for it at any n_dense
    monkeypatch.setattr(_config, "_physical_memory", lambda: 400 * 2**20)
    path = _write(tmp_path, _with("dense", "n_dense", 4096))
    for command in ("matrix-element", "semigroup-norms", "lyapunov-curve",
                    "convergence"):
        assert load_config(path, command)["dense"]["n_dense"] == 4096
    for command in ("projection-family", None):
        with pytest.raises(ConfigError, match="dense.n_dense: the run needs"):
            load_config(path, command)
    path = _write(tmp_path, _with("dense", "n_dense", 2**20))
    for command in ("lyapunov-curve", "convergence"):
        assert load_config(path, command)["dense"]["n_dense"] == 2**20


@pytest.mark.parametrize("command", ["matrix-element", "semigroup-norms",
                                     "projection-family", "lyapunov-curve"])
def test_each_command_checks_its_own_estimate(tmp_path, monkeypatch, command):
    # the estimate is stubbed to exceed any memory, so nothing runs
    seen = []

    def estimate(cfg, command=None):
        seen.append(command)
        return 2**62, "dense.n_dense"

    monkeypatch.setattr(_config, "peak_memory_estimate", estimate)
    path = _write(tmp_path, DEFAULT_CONFIG)
    res = CliRunner().invoke(main, [command, "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert seen == [command]


@pytest.mark.parametrize("n_steps, measured_mb", [(33, 59.0), (2000, 148.0)])
def test_estimate_bounds_measured_peaks_at_k_dim_8(n_steps, measured_mb):
    # the largest peak RSS of projection-family, matrix-element and
    # semigroup-norms at n_dense 512 and k_dim 8, one BLAS thread, measured
    # while the model still held dense matrices (the estimate bounds the
    # peaks in _config's comment too), against the estimate of
    # a command not named: the model acts on every fibre alike, and only the
    # blocks of states grow with k_dim
    cfg = _with("grid", "k_dim", 8)
    cfg["times"]["n_steps"] = n_steps
    need, field = peak_memory_estimate(cfg)
    assert field == "dense.n_dense"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


def test_default_config_is_valid(tmp_path):
    assert load_config(_write(tmp_path, DEFAULT_CONFIG)) == DEFAULT_CONFIG


def _perfbench(name, monkeypatch):
    """``perfbench/<name>.py`` loaded as a module (read, never edited)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    # the tracer wraps each target as an attribute of its timearrow module,
    # so a removed or renamed one fails here, not only in a traced run
    for module_name, attr in _perfbench("tracer", monkeypatch).TARGETS:
        module = importlib.import_module(f"timearrow.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_benchmark_pool_configs_are_valid(tmp_path, monkeypatch):
    scenarios = _perfbench("scenarios", monkeypatch)
    for name, workload in scenarios.WORKLOADS.items():
        for j in range(scenarios.POOL_SIZE):
            cfg = workload.config(j)
            assert load_config(_write(tmp_path, cfg)) == cfg, (name, j)


@pytest.mark.parametrize("n_dense, measured_mb", [(256, 79.0), (512, 175.0),
                                                  (16, 80.8), (128, 76.4)])
def test_selftest_estimate_bounds_measured_peaks(n_dense, measured_mb):
    # peak RSS of selftest, one BLAS thread: at 256 and 512 when criterion 1
    # still held its dense 0/1 diagonals, at 16 and 128 through the CLI,
    # where the fixed 1024-bin quadrature grid of criterion 11 sets the peak;
    # the current peaks are in _config's comment, and the estimate bounds
    # them too
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
