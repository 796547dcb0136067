"""Config loading: the peak-memory estimate and the rejection of oversized runs.

No test here runs an oversized config: each is only loaded, or handed to a
command that ignores its sizes, so nothing is allocated if the check fails.
"""

import copy
import importlib.util
import json
import sys
import tracemalloc
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
    validate_config,
)
from timearrow.cli import main

OVERSIZED = [
    # (section, field, value, field named in the error)
    ("dense", "n_dense", 2**20, "dense.n_dense"),
    ("grid", "k_dim", 10**6, "dense.n_dense"),
    ("grid", "n_sigma", 2**40, "grid.n_sigma"),
]

# the size fields each command's memory grows with, and a value of each too
# large to run
READS = {
    "lyapunov-curve": ("grid.n_sigma", "grid.k_dim", "times.n_steps"),
    "semigroup-norms": ("grid.n_sigma", "grid.k_dim", "dense.n_dense",
                        "times.n_steps"),
    "projection-family": ("dense.n_dense", "times.n_steps"),
    "matrix-element": ("grid.k_dim", "dense.n_dense", "times.n_steps"),
    "selftest": ("dense.n_dense",),
    "convergence": (),
}
HUGE = {"grid.n_sigma": 2**40, "grid.k_dim": 10**9, "dense.n_dense": 2**20,
        "times.n_steps": 10**12}
# the commands each oversized field of OVERSIZED is run with
EXITS_2_ON = {
    "dense.n_dense": ("projection-family", "matrix-element"),
    "grid.k_dim": ("matrix-element", "semigroup-norms"),
    "grid.n_sigma": ("lyapunov-curve",),
}


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
    # each size goes to the commands of EXITS_2_ON, with the model, the state
    # and the curve stubbed so a missed rejection fails the test instead of
    # allocating
    def must_not_run(*args):
        raise AssertionError("the command ran past the memory check")

    for name in ("build_model", "_build_state", "lyapunov_curve"):
        monkeypatch.setattr(timearrow.cli, name, must_not_run)
    path = _write(tmp_path, _with(section, field, value))
    for command in EXITS_2_ON[f"{section}.{field}"]:
        res = CliRunner().invoke(main, [command, "--config", path,
                                        "--out", str(tmp_path)])
        assert res.exit_code == 2, command
        assert f"config error: {named}: " in res.output
        assert not (tmp_path / f"{command.replace('-', '_')}.csv").exists()


def _named(command, field):
    """The field an oversized ``field`` is named by: itself, but k_dim scales
    the FFT tier of lyapunov-curve and the blocks of states elsewhere."""
    if field != "grid.k_dim":
        return field
    return "grid.n_sigma" if command == "lyapunov-curve" else "dense.n_dense"


@pytest.mark.parametrize("command, field", [
    (command, field) for command, fields in READS.items() for field in fields
])
def test_command_rejects_oversized_field_it_reads(tmp_path, command, field):
    path = _write(tmp_path, _with(*field.split("."), HUGE[field]))
    with pytest.raises(ConfigError) as info:
        load_config(path, command)
    [problem] = info.value.problems
    assert problem.startswith(f"{_named(command, field)}: the run needs about ")


@pytest.mark.parametrize("command, field", [
    (command, field) for command, fields in READS.items() for field in HUGE
    if field not in fields
])
def test_command_admits_oversized_field_it_ignores(tmp_path, command, field):
    cfg = _with(*field.split("."), HUGE[field])
    assert load_config(_write(tmp_path, cfg), command) == cfg


def test_projection_family_memory_does_not_grow_with_k_dim(tmp_path):
    # k_dim only scales its ranks and norms: the ordering spectrum it reports
    # is one fibre's, not repeated k_dim times (2 MB per copy at k_dim 4096)
    peaks = []
    for k_dim in (1, 4096):
        cfg = _with("dense", "n_dense", 64)
        cfg["grid"]["k_dim"] = k_dim
        out = tmp_path / str(k_dim)
        tracemalloc.start()
        try:
            res = CliRunner().invoke(main, [
                "projection-family", "--config", _write(tmp_path, cfg),
                "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0, res.output
    assert peaks[1] <= peaks[0] + 2**18


def test_unknown_command_is_a_value_error():
    with pytest.raises(ValueError, match="unknown command 'projection'"):
        peak_memory_estimate(DEFAULT_CONFIG, "projection")


def test_command_charged_only_the_base_names_config(tmp_path, monkeypatch):
    # convergence reads no size field, so only a machine smaller than the
    # base rejects it, naming no field it does not read
    monkeypatch.setattr(_config, "_physical_memory", lambda: 2**20)
    with pytest.raises(ConfigError, match="^config: the run needs about "):
        load_config(None, "convergence")


def test_row_end_past_the_float_range_is_estimated(tmp_path):
    # t_max * sigma_max overflows to inf; the row end is clipped to n_dense
    # before rounding, so every command is estimated and projection-family's
    # own time check rejects the run
    cfg = _with("times", "t_max", 1e300)
    cfg["grid"]["sigma_max"] = 1e300
    path = _write(tmp_path, cfg)
    for command in [*READS, None]:
        assert load_config(path, command) == cfg
    res = CliRunner().invoke(main, ["projection-family", "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "has no dual-lattice index" in res.output


# The measured peaks below are the one record of the memory model's fit: peak
# RSS in MB, the child's ru_maxrss with one BLAS thread; x86-64 Linux, Python
# 3.11, numpy 2.4.6 with OpenBLAS; default config otherwise.  A child's
# ru_maxrss starts from its parent's peak, so projection-family's, selftest's
# and the k_dim 8 and per-step peaks come from a parent without numpy.  The
# dense commands run with an empty model cache: the estimate prices that cold
# build, and a run that loads the model peaks lower (matrix-element: 38.4 /
# 41.0 / 49.0 / 77.0 MB).  Each command at n_dense 512 / 1024 / 2048 / 4096:
MEASURED_PEAKS_MB = {
    "projection-family": (37.5, 51.8, 108.1, 279.1),
    "matrix-element": (40.8, 49.4, 81.5, 204.8),
    "semigroup-norms": (41.6, 50.5, 82.6, 205.4),
}
# projection-family over the full half window, t_max = n_dense / 32, where the
# residual loop's E x E blocks are n_dense x n_dense (at 2048, 140.0 MB with
# MALLOC_TRIM_THRESHOLD_ 1 MB: glibc keeps no freed heap at the peak)
FULL_WINDOW_PEAKS_MB = (39.6, 60.0, 139.7, 468.2)


@pytest.mark.parametrize("command, n_dense, t_max, measured_mb", [
    pytest.param(command, n_dense, None, mb, id=f"{command}-{n_dense}")
    for command, peaks in MEASURED_PEAKS_MB.items()
    for n_dense, mb in zip((512, 1024, 2048, 4096), peaks)
] + [
    pytest.param("projection-family", n_dense, n_dense / 32, mb,
                 id=f"projection-family-{n_dense}-full-window")
    for n_dense, mb in zip((512, 1024, 2048, 4096), FULL_WINDOW_PEAKS_MB)
])
def test_estimate_bounds_measured_peaks(command, n_dense, t_max, measured_mb):
    cfg = _with("dense", "n_dense", n_dense)
    if t_max is not None:
        cfg["times"]["t_max"] = t_max
    need, field = peak_memory_estimate(cfg, command)
    assert field == "dense.n_dense"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


# lyapunov-curve at n_sigma 2^18 / 2^19 / 2^20, per k_dim
CURVE_PEAKS_MB = {1: (57.1, 77.2, 117.2), 8: (111.2, 185.1, 333.3)}


@pytest.mark.parametrize("k_dim, n_sigma, measured_mb", [
    pytest.param(k_dim, n_sigma, mb, id=f"lyapunov-curve-{n_sigma}-k{k_dim}")
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
    # defect of projection-family and its build (425 MiB), whose 24 bytes an
    # entry a command not named is charged too (442 MiB); lyapunov-curve and
    # convergence build no dense model, so they are charged nothing for it at
    # any n_dense
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


def _stub_estimate(monkeypatch):
    """Stub the estimate to exceed any memory, so nothing runs; returns the
    list of commands it was asked about."""
    seen = []

    def estimate(cfg, command=None):
        seen.append(command)
        return 2**62, "dense.n_dense"

    monkeypatch.setattr(_config, "peak_memory_estimate", estimate)
    return seen


@pytest.mark.parametrize("command", ["matrix-element", "semigroup-norms",
                                     "projection-family", "lyapunov-curve",
                                     "selftest", "convergence"])
def test_each_command_checks_its_own_estimate(tmp_path, monkeypatch, command):
    seen = _stub_estimate(monkeypatch)
    path = _write(tmp_path, DEFAULT_CONFIG)
    res = CliRunner().invoke(main, [command, "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert seen == [command]


@pytest.mark.parametrize("command", list(READS))
def test_default_config_is_checked_too(tmp_path, monkeypatch, command):
    # with no --config the built-in defaults pass the same memory check
    seen = _stub_estimate(monkeypatch)
    res = CliRunner().invoke(main, [command, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "config error: dense.n_dense: the run needs about " in res.output
    assert seen == [command]
    assert not any(tmp_path.iterdir())


def test_no_command_bounds_every_scenario_command():
    # a call with no command is charged the largest of each term
    for cfg in (DEFAULT_CONFIG, _with("grid", "n_sigma", 2**20),
                _with("grid", "k_dim", 8), _with("times", "n_steps", 10**6)):
        need = peak_memory_estimate(cfg)[0]
        for command in READS:
            if command != "selftest":
                assert need >= peak_memory_estimate(cfg, command)[0], command


# projection-family, matrix-element and semigroup-norms at n_dense 512 and
# k_dim 8, per n_steps: the model acts on every fibre alike, and only the
# blocks of states grow with k_dim, which projection-family does not hold
K_DIM_8_PEAKS_MB = {
    "projection-family": {33: 37.5, 2000: 37.8},
    "matrix-element": {33: 47.6, 2000: 101.1},
    "semigroup-norms": {33: 48.0, 2000: 97.2},
}


@pytest.mark.parametrize("command, n_steps, measured_mb", [
    pytest.param(command, n_steps, mb, id=f"{command}-512-k8-{n_steps}-steps")
    for command, peaks in K_DIM_8_PEAKS_MB.items()
    for n_steps, mb in peaks.items()
])
def test_estimate_bounds_measured_peaks_at_k_dim_8(command, n_steps, measured_mb):
    cfg = _with("grid", "k_dim", 8)
    cfg["times"]["n_steps"] = n_steps
    need, field = peak_memory_estimate(cfg, command)
    assert field == "dense.n_dense"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


# each command that reads times at n_dense 64 over many steps, where the
# per-step rows dominate: the child's peak at four step counts, from which
# each command's bytes per step were fitted (147 / 65 / 48 / 50 for
# matrix-element / semigroup-norms / projection-family / lyapunov-curve);
# matrix-element exits 1 there (times past the half window), after writing
STEP_PEAKS_MB = {
    "matrix-element": {50_000: 45.2, 100_000: 52.0, 200_000: 66.1, 400_000: 94.2},
    "semigroup-norms": {50_000: 41.5, 100_000: 44.9, 200_000: 51.1,
                        400_000: 63.4},
    "projection-family": {50_000: 34.2, 100_000: 36.6, 200_000: 41.2,
                          400_000: 50.3},
    "lyapunov-curve": {250_000: 48.7, 500_000: 60.5, 1_000_000: 84.2,
                       2_000_000: 131.9},
}


@pytest.mark.parametrize("command, n_steps, measured_mb", [
    pytest.param(command, n_steps, mb, id=f"{command}-{n_steps}-steps")
    for command, peaks in STEP_PEAKS_MB.items()
    for n_steps, mb in peaks.items()
])
def test_estimate_bounds_measured_step_peaks(command, n_steps, measured_mb):
    cfg = _with("dense", "n_dense", 64)
    cfg["times"]["n_steps"] = n_steps
    need, field = peak_memory_estimate(cfg, command)
    assert field == "times.n_steps"
    assert measured_mb * 2**20 <= need <= 2 * measured_mb * 2**20


class _Null:
    """JSON ``null`` as a value of INVALID, where ``None`` deletes the field."""

    def __repr__(self):
        return "null"


NULL = _Null()

# one bad value per validation rule, and a null in each field: (dotted path,
# value, today's message); the path "config" is the whole config, and a path
# into state.parameters may carry the state kind it needs first
_WITNESS = {"kind": "witness", "parameters": {"mu": [25.0, -1.0], "t0": 1.0}}
_RATIONAL = {"kind": "rational", "parameters": {"poles": [[25.0, -1.0, 1]]}}
INVALID = [
    ("grid.extra", 1, "grid.extra: unknown field"),
    ("times.t_max", None, "times.t_max: missing required field"),
    ("grid.k_dim", True, "grid.k_dim: expected an integer >= 1, got True"),
    ("state.kind", "gaussian",
     "state.kind: expected one of rational|witness|random, got 'gaussian'"),
    ("state.seed", 2**64,
     f"state.seed: expected an integer in [0, 2^64), got {2**64}"),
    ("state.parameters.mu", [25.0],
     "state.parameters.mu: expected [re, im] pair of numbers"),
    ("state.parameters.mu", [25.0, 0.0],
     "state.parameters.mu: Im(mu) must be negative, got 0.0"),
    ("state.parameters.poles", [[25.0, -1.0]],
     "state.parameters.poles[0]: expected [re, im, order] with integer order"),
    ("state.parameters.poles", [[25.0, -1.0, 3]],
     "state.parameters.poles[0]: order must be 1 or 2, got 3"),
    ("state.parameters.poles", [[25.0, 0.5, 1]],
     "state.parameters.poles[0]: Im(mu) must be negative, got 0.5"),
    ("state.parameters.n_terms", 0,
     "state.parameters.n_terms: expected an integer >= 1, got 0"),
    ("times.snap_times", 1, "times.snap_times: expected true/false, got 1"),
    ("grid.n_sigma", 12, "grid.n_sigma: expected a power of two >= 8, got 12"),
    ("grid.sigma_max", 0, "grid.sigma_max: expected a positive number, got 0"),
    ("dense.n_dense", 2, "dense.n_dense: expected a power of two >= 4, got 2"),
    ("times.t_max", -1, "times.t_max: expected a positive number, got -1"),
    ("times.n_steps", 1, "times.n_steps: expected an integer >= 2, got 1"),
    ("tolerances.continuum", 0,
     "tolerances.continuum: expected a positive number, got 0"),
    ("state.parameters.t0", 0,
     "state.parameters.t0: expected a positive number, got 0"),
    ("state.parameters", "x", "state.parameters: expected an object"),
    ("grid", 3, "grid: expected an object"),
    ("config", [], "config: expected a JSON object at top level"),
    ("state.parameters.poles", [], "state.parameters.poles: expected a non-empty list"),
    *[(path, NULL, f"{path}: expected {phrase}, got None") for path, phrase in (
        ("grid.n_sigma", "a power of two >= 8"),
        ("grid.sigma_max", "a positive number"),
        ("grid.k_dim", "an integer >= 1"),
        ("dense.n_dense", "a power of two >= 4"),
        ("times.t_max", "a positive number"),
        ("times.n_steps", "an integer >= 2"),
        ("times.snap_times", "true/false"),
        ("state.kind", "one of rational|witness|random"),
        ("state.seed", "an integer in [0, 2^64)"),
        ("tolerances.algebraic", "a positive number"),
        ("tolerances.continuum", "a positive number"),
        ("state.parameters.n_terms", "an integer >= 1"),
        ("state.parameters.t0", "a positive number"),
    )],
    ("state.parameters", NULL, "state.parameters: expected an object"),
    ("state.parameters.mu", NULL,
     "state.parameters.mu: expected [re, im] pair of numbers"),
    ("state.parameters.poles", NULL,
     "state.parameters.poles: expected a non-empty list"),
]


def _set(cfg, path, value):
    """``cfg`` with the dotted ``path`` set to ``value`` (``None`` deletes it,
    NULL sets JSON null), or ``value`` itself where ``path`` is "config"."""
    if path == "config":
        return value
    *sections, field = path.split(".")
    if path.startswith("state.parameters.") and field != "n_terms":
        witness = field in ("mu", "t0")
        cfg["state"].update(copy.deepcopy(_WITNESS if witness else _RATIONAL))
    section = cfg
    for name in sections:
        section = section[name]
    if value is None:
        del section[field]
    else:
        section[field] = None if value is NULL else value
    return cfg


@pytest.mark.parametrize("path, value, message", INVALID,
                         ids=[message.split(":")[0] + f"={value!r}"
                              for _, value, message in INVALID])
def test_validate_config_names_each_bad_field(path, value, message):
    cfg = _set(copy.deepcopy(DEFAULT_CONFIG), path, value)
    assert validate_config(cfg) == [message]


@pytest.mark.parametrize("path", sorted({path for path, value, _ in INVALID
                                         if value is NULL}))
def test_null_in_any_field_exits_2(tmp_path, path):
    # null passes no rule: semigroup-norms, which reads every section, stops
    # at the config check without a traceback or an output file
    cfg = _set(copy.deepcopy(DEFAULT_CONFIG), path, NULL)
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["semigroup-norms", "--config",
                                    _write(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"config error: {path}: expected " in res.output
    assert not out.exists()


def test_field_table_has_default_config_layout():
    # every section and field of the default config, in its order, has a rule,
    # and the default state's parameters are its kind's table
    fields, state = _config._FIELDS, DEFAULT_CONFIG["state"]
    assert {name: list(section) for name, section in DEFAULT_CONFIG.items()} == {
        name: list(table) for name, table in fields.items()}
    assert list(DEFAULT_CONFIG) == list(fields)
    assert list(state["parameters"]) == list(
        fields["state"]["parameters"][state["kind"]])


def test_validate_config_reports_every_problem():
    # one config with a problem in every section but the state's kind (a kind
    # validates only its own parameters)
    several = ("grid.extra", "grid.k_dim", "times.t_max", "times.snap_times",
               "state.seed", "state.parameters.n_terms")
    cases = [next(case for case in INVALID if case[0] == path) for path in several]
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for path, value, _ in cases:
        cfg = _set(cfg, path, value)
    assert sorted(validate_config(cfg)) == sorted(message for *_, message in cases)


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


# selftest at k_dim 1 whatever the config: criterion 11's fixed 1024-bin
# quadrature grid sets the peak up to n_dense 256, the dense criteria above
# (at 2048 the run exits 1 on criterion 7)
SELFTEST_PEAKS_MB = {16: 73.2, 128: 75.4, 256: 81.3, 512: 132.0, 1024: 423.8,
                     2048: 1585.7}


@pytest.mark.parametrize("n_dense, measured_mb", [
    pytest.param(n_dense, mb, id=f"selftest-{n_dense}")
    for n_dense, mb in SELFTEST_PEAKS_MB.items()
])
def test_selftest_estimate_bounds_measured_peaks(n_dense, measured_mb):
    need, field = peak_memory_estimate(_with("dense", "n_dense", n_dense),
                                       "selftest")
    assert field == "dense.n_dense"
    assert measured_mb * 2**20 <= need <= 1.5 * measured_mb * 2**20


def test_oversized_selftest_exits_2(tmp_path, monkeypatch):
    # with 1 GiB of memory, n_dense 2048 fits every scenario command but not
    # selftest; run_all is stubbed so a missed rejection fails the test
    # instead of allocating
    monkeypatch.setattr(_config, "_physical_memory", lambda: 2**30)

    def must_not_run(**kwargs):
        raise AssertionError("selftest ran past the memory check")

    monkeypatch.setattr(timearrow.cli, "run_all", must_not_run)
    cfg = _with("dense", "n_dense", 2048)
    path = _write(tmp_path, cfg)
    assert load_config(path)["dense"]["n_dense"] == 2048
    assert peak_memory_estimate(cfg, "selftest")[0] > 2**30
    res = CliRunner().invoke(main, ["selftest", "--config", path,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "config error: dense.n_dense: the run needs about " in res.output
    assert not (tmp_path / "selftest.json").exists()
