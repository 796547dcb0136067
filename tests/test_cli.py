"""End-to-end runs of the command-line scenarios."""

import copy
import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from timearrow import (
    DEFAULT_CONFIG, OffLatticeTimeError, build_model, hardy_embed,
    hardy_part, kernel_witness, lattice_index, make_grid, rational_hardy,
)
from timearrow.cli import _atomic_write, _build_state, _cached_model, main
from timearrow.evolution import _snap
from oracles import restrict

SMALL = {
    "grid": {"n_sigma": 256, "sigma_max": 50.0, "k_dim": 1},
    # dense bins must stay a few times narrower than the 0.5-width packets
    "dense": {"n_dense": 128},
    "times": {"t_max": 2.0, "n_steps": 5, "snap_times": True},
    "state": {"kind": "random", "parameters": {"n_terms": 4}, "seed": 7},
    "tolerances": {"algebraic": 1.0e-8, "continuum": 0.05},
}

# the commands that write a CSV and a .meta.json from the config's time grid
SCENARIOS = ("lyapunov-curve", "semigroup-norms", "projection-family", "matrix-element")

# matrix-element cannot pass its picture gate here: the times reach past the
# half window t = 64 pi / 50 = 4.02 of n_dense 64, where Z(t) is zero
PAST_HALF_WINDOW = {**SMALL, "dense": {"n_dense": 64},
                    "times": {**SMALL["times"], "t_max": 2000.0}}

# the commands that factor the model, and their output stems
DENSE_STEMS = {"matrix-element": "matrix_element",
               "projection-family": "projection_family",
               "semigroup-norms": "semigroup_norms"}

_SCI = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def _write_cfg(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _child_env(**extra):
    """This environment, with the package's sources first on PYTHONPATH."""
    import timearrow

    env = dict(os.environ, **extra)
    src = str(Path(timearrow.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_process(args, prelude=""):
    """The command line in a fresh interpreter, stdout and stderr on pipes;
    ``prelude`` runs before ``timearrow.cli`` is imported."""
    code = prelude + "from timearrow.cli import main; main(prog_name='timearrow')"
    return subprocess.run([sys.executable, "-c", code, *args], env=_child_env(),
                          capture_output=True, text=True)


def _stderr(result):
    try:
        return result.stderr
    except ValueError:  # pragma: no cover - older click mixes the streams
        return result.output


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigHandling:
    def test_invalid_field_exits_2_and_names_it(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"grid": {"n_sigma": 1000}})
        res = _run(["lyapunov-curve", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        err = _stderr(res)
        assert "grid.n_sigma" in err
        assert "config error" in err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = copy.deepcopy(SMALL)
        cfg["extra"] = {}
        path = _write_cfg(tmp_path, cfg)
        res = _run(["lyapunov-curve", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "extra" in _stderr(res)

    def test_missing_file_exits_2(self, tmp_path):
        res = _run(["lyapunov-curve", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("content, problem", [
        (b"\xff\xfe{}", "cannot read {path}: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "invalid JSON: maximum recursion depth"),
    ], ids=["undecodable", "nested-too-deep"])
    def test_unreadable_config_exits_2_without_a_traceback(self, tmp_path, content,
                                                           problem):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        out.mkdir()
        res = _run(["lyapunov-curve", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2
        assert _stderr(res).startswith("config error: config: " + problem.format(path=path))
        assert "Traceback" not in _stderr(res)
        assert not any(out.iterdir())

    def test_off_lattice_times_exit_2_when_snapping_disabled(self, tmp_path):
        cfg = copy.deepcopy(SMALL)
        cfg["times"]["snap_times"] = False
        path = _write_cfg(tmp_path, cfg)
        res = _run(["lyapunov-curve", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 2
        # t_max = 2.0 over 5 steps: times[1] = 0.5 is the first off-lattice time
        assert _stderr(res).startswith(
            "config error: times.snap_times: times[1] = 0.5 is off the dual lattice")
        assert "times.snap_times is false" in _stderr(res)

    def test_time_past_the_index_range_exits_2(self, tmp_path):
        # finite, but t / delta_tau does not fit in int64
        cfg = copy.deepcopy(SMALL)
        cfg["times"]["t_max"] = 1e300
        path = _write_cfg(tmp_path, cfg)
        res = _run(["lyapunov-curve", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert _stderr(res).startswith(
            "config error: times.t_max: times[1] = 2.5e+299 has no dual-lattice index")
        assert not (tmp_path / "lyapunov_curve.csv").exists()

    @pytest.mark.parametrize("command", SCENARIOS)
    @pytest.mark.parametrize("times, problem", [
        ({"t_max": 1e300}, "times.t_max: times[1] = 2.5e+299 has no dual-lattice index"),
        ({"snap_times": False}, "times.snap_times: times[1] = 0.5 is off the dual"),
    ], ids=["no-index", "no-snap"])
    def test_times_errors_name_their_field_before_the_model(self, tmp_path, monkeypatch,
                                                           command, times, problem):
        # every command reads its times before it builds or loads the model:
        # exit 2 with the field named, no output and the model cache untouched
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        cfg = copy.deepcopy(SMALL)
        cfg["times"].update(times)
        out = tmp_path / "out"
        res = _run([command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert res.exit_code == 2
        assert _stderr(res).startswith("config error: " + problem)
        assert "model:" not in res.output
        assert not out.exists()
        assert not any(cache.iterdir())

    @pytest.mark.parametrize("t0, problem", [
        (1e-6, "t0 = 1e-06 rounds to lattice index 0"),
        (1e300, "t = 1e+300 has no dual-lattice index"),
    ], ids=["index-0", "no-index"])
    def test_witness_t0_off_the_index_range_exits_2_and_names_it(self, tmp_path,
                                                                 t0, problem):
        # valid positive t0, but it rounds to lattice index 0 or has none
        cfg = copy.deepcopy(SMALL)
        cfg["state"] = {"kind": "witness",
                        "parameters": {"mu": [25.0, -1.0], "t0": t0}, "seed": 7}
        path = _write_cfg(tmp_path, cfg)
        res = _run(["lyapunov-curve", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert _stderr(res).startswith("config error: state.parameters.t0: " + problem)
        assert not (tmp_path / "lyapunov_curve.csv").exists()

    @pytest.mark.parametrize("section, field, value", [
        ("times", "t_max", float("inf")),
        ("times", "t_max", -float("inf")),
        ("grid", "sigma_max", float("inf")),
        ("grid", "sigma_max", float("nan")),
        ("tolerances", "algebraic", float("inf")),
        ("tolerances", "continuum", float("nan")),
    ])
    def test_non_finite_number_exits_2_and_names_it(self, tmp_path, section,
                                                    field, value):
        # JSON's Infinity/NaN parse to floats; none of them is a valid value
        cfg = copy.deepcopy(SMALL)
        cfg[section][field] = value
        path = _write_cfg(tmp_path, cfg)
        res = _run(["lyapunov-curve", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert f"config error: {section}.{field}:" in _stderr(res)
        assert not (tmp_path / "lyapunov_curve.csv").exists()

    @pytest.mark.parametrize("command", ["lyapunov-curve", "semigroup-norms",
                                         "matrix-element"])
    @pytest.mark.parametrize("sigma_max", [39.0, 1e4, 1e6],
                             ids=["box-empty", "bins-too-wide", "packets-vanish"])
    def test_sigma_max_the_random_state_cannot_use_exits_2(self, tmp_path,
                                                           command, sigma_max):
        # the default config but for sigma_max: below 40 the packet box is
        # empty; at 1e4 the bins are 20 wide, far wider than pi times the
        # narrowest packet width, and at 1e6 the packets would vanish
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["grid"]["sigma_max"] = sigma_max
        out = tmp_path / "out"
        res = _run([command, "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(out)])
        assert res.exit_code == 2
        assert _stderr(res).startswith("config error: grid.sigma_max: ")
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("path, command", [
        (path, command) for path, commands in (
            ("state.seed", ("lyapunov-curve", "semigroup-norms", "matrix-element")),
            ("tolerances.algebraic", ("lyapunov-curve", "semigroup-norms",
                                      "projection-family", "matrix-element")),
            ("grid.n_sigma", ("lyapunov-curve", "semigroup-norms")),
        ) for command in commands
    ])
    def test_null_field_exits_2_and_names_it(self, tmp_path, path, command):
        # a field the command reads, null: nothing runs (a null seed would
        # draw fresh entropy, a null tolerance fail after writing)
        cfg = copy.deepcopy(SMALL)
        section, field = path.split(".")
        cfg[section][field] = None
        out = tmp_path / "out"
        res = _run([command, "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(out)])
        assert res.exit_code == 2
        assert re.fullmatch(rf"config error: {re.escape(path)}: expected [^\n]*, "
                            r"got None\n", _stderr(res))
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_defaults_used_without_config_flag(self, tmp_path):
        # no --config: the built-in default config drives the run
        res = _run(["lyapunov-curve", "--out", str(tmp_path)])
        assert res.exit_code == 0
        assert (tmp_path / "lyapunov_curve.csv").exists()


class TestLyapunovCurveCommand:
    def test_writes_csv_and_meta(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        res = _run(["lyapunov-curve", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = _read_csv(tmp_path / "lyapunov_curve.csv")
        assert header == ["t", "expectation", "norm", "tolerance_class"]
        assert len(rows) == SMALL["times"]["n_steps"]
        for row in rows:
            assert all(_SCI.match(cell) for cell in row[:3])
            assert row[3] == "algebraic"
        ex = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(ex) <= 1e-10)
        meta = json.loads((tmp_path / "lyapunov_curve.meta.json").read_text())
        assert meta["command"] == "lyapunov-curve"
        assert meta["config"]["grid"]["n_sigma"] == 256
        assert "guard_band_leakage" in meta["diagnostics"]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = _run(["lyapunov-curve", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0
        assert (a / "lyapunov_curve.csv").read_bytes() \
            == (b / "lyapunov_curve.csv").read_bytes()
        assert (a / "lyapunov_curve.meta.json").read_bytes() \
            == (b / "lyapunov_curve.meta.json").read_bytes()

    def test_seed_flag_changes_random_state(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        _run(["lyapunov-curve", "--config", cfg, "--out", str(a), "--seed", "11"])
        _run(["lyapunov-curve", "--config", cfg, "--out", str(b), "--seed", "12"])
        _run(["lyapunov-curve", "--config", cfg, "--out", str(c), "--seed", "11"])
        bytes_a = (a / "lyapunov_curve.csv").read_bytes()
        assert bytes_a != (b / "lyapunov_curve.csv").read_bytes()
        assert bytes_a == (c / "lyapunov_curve.csv").read_bytes()

    def test_witness_state_decays_three_decades(self, tmp_path):
        cfg = copy.deepcopy(SMALL)
        cfg["grid"] = {"n_sigma": 1024, "sigma_max": 100.0, "k_dim": 1}
        cfg["times"] = {"t_max": 2.0, "n_steps": 3, "snap_times": True}
        cfg["state"] = {"kind": "witness",
                        "parameters": {"mu": [50.0, -1.0], "t0": 1.0},
                        "seed": 7}
        path = _write_cfg(tmp_path, cfg)
        res = _run(["lyapunov-curve", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 0
        _, rows = _read_csv(tmp_path / "lyapunov_curve.csv")
        e0, e2 = float(rows[0][1]), float(rows[-1][1])
        assert e2 <= 1e-3 * e0


class TestWitnessAndRationalStates:
    @pytest.mark.parametrize("command", ["lyapunov-curve", "semigroup-norms",
                                         "matrix-element"])
    def test_witness_meta_names_the_requested_and_the_used_t0(self, tmp_path,
                                                              command):
        # t0 = 1 is off the lattice (delta_tau = pi / sigma_max on every grid)
        # and snaps; the meta names both times, a random state's neither
        cfg = copy.deepcopy(SMALL)
        _run([command, "--config", _write_cfg(tmp_path, cfg),
              "--out", str(tmp_path / "random")])
        cfg["state"] = {"kind": "witness",
                        "parameters": {"mu": [25.0, -1.0], "t0": 1.0}, "seed": 7}
        res = _run([command, "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(tmp_path)])
        assert res.exit_code in (0, 1)  # matrix-element flags the leakage floor
        stem = command.replace("-", "_")
        notes = json.loads((tmp_path / f"{stem}.meta.json").read_text())["diagnostics"]
        dt = make_grid(256, 50.0).delta_tau
        assert notes["t0_requested"] == 1.0
        assert notes["t0_used"] == round(1.0 / dt) * dt != 1.0
        meta = json.loads((tmp_path / "random" / f"{stem}.meta.json").read_text())
        assert "t0_used" not in meta.get("diagnostics", {})

    @pytest.mark.parametrize("kind", ["witness", "rational"])
    def test_state_lifted_last_is_the_per_fibre_route(self, kind):
        # one scalar Hardy profile through omega* on the half line, lifted
        # onto the first fibre, against restrict(hardy_embed(.)) of the
        # state built on every fibre, at k_dim 8
        grid = make_grid(1024, 100.0, 8)
        cfg = copy.deepcopy(SMALL)
        if kind == "witness":
            t0 = 64 * grid.delta_tau
            cfg["state"] = {"kind": kind, "parameters": {"mu": [50.0, -1.0], "t0": t0}}
            f = kernel_witness(grid, 50.0 - 1j, t0)
        else:
            poles = [[50.0, -1.0, 1], [30.0, -2.0, 2]]
            cfg["state"] = {"kind": kind, "parameters": {"poles": poles}}
            f = hardy_part(rational_hardy(grid, [(50.0 - 1j, 1), (30.0 - 2j, 2)]))
        want = restrict(hardy_embed(f)).amplitudes
        got = _build_state(grid, cfg)[0].amplitudes
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestSemigroupNormsCommand:
    # command: (output stem, header, row filter, non-increasing columns)
    CASES = {
        "semigroup-norms": (
            "semigroup_norms",
            ["t_toeplitz", "toeplitz_norm", "t_z", "z_norm", "tolerance_class"],
            lambda r: True,
            (1, 3),
        ),
        # the identity observable's element is the Lyapunov expectation in
        # both pictures
        "matrix-element": (
            "matrix_element",
            ["observable", "t", "reversible_re", "reversible_im",
             "irreversible_re", "irreversible_im", "abs_difference",
             "tolerance_class"],
            lambda r: r[0] == "identity",
            (2, 4),
        ),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_norms_monotone_and_threads_invariant(self, tmp_path, command):
        stem, head, keep, columns = self.CASES[command]
        cfg = _write_cfg(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        res1 = _run([command, "--config", cfg, "--out", str(a),
                     "--threads", "1"])
        res2 = _run([command, "--config", cfg, "--out", str(b),
                     "--threads", "4"])
        assert res1.exit_code == 0 and res2.exit_code == 0
        assert (a / f"{stem}.csv").read_bytes() \
            == (b / f"{stem}.csv").read_bytes()
        header, rows = _read_csv(a / f"{stem}.csv")
        assert header == head
        rows = [r for r in rows if keep(r)]
        assert len(rows) == SMALL["times"]["n_steps"]
        for col in columns:
            values = np.array([float(r[col]) for r in rows])
            assert np.all(np.diff(values) <= 1e-10)

    def test_toeplitz_norm_matches_slice_oracle(self, tmp_path):
        # the tail-power column against one slice and one norm per time
        from timearrow import apply_omega, norm, toeplitz_step
        from timearrow.cli import _build_state, _scenario_grid

        res = _run(["semigroup-norms", "--config", _write_cfg(tmp_path, SMALL),
                    "--out", str(tmp_path)])
        assert res.exit_code == 0
        _, rows = _read_csv(tmp_path / "semigroup_norms.csv")
        h = apply_omega(_build_state(_scenario_grid(SMALL), SMALL)[0])
        for row in rows:
            want = norm(toeplitz_step(h, float(row[0])))
            assert abs(float(row[1]) - want) <= 1e-14 * want


@pytest.mark.parametrize("stem, command", [("matrix_element", "matrix-element"),
                                           ("semigroup_norms", "semigroup-norms"),
                                           ("lyapunov_curve", "lyapunov-curve"),
                                           ("convergence", "convergence"),
                                           ("projection_family", "projection-family"),
                                           ("selftest", "selftest")])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, stem, command):
    # block products must give the same bytes on one and on two BLAS threads;
    # each count has its own empty model cache, so both runs build the model.
    # projection-family and selftest run at the default config.  Open
    # remainder: criterion 2's eig_min and eig_max come from eigvalsh and
    # move in the last digits with the thread count, so they are masked.
    # Their input, the closed-form M_F, has the same bits on both counts, so
    # the moves are eigvalsh's own (eig_min -2.70e-15 vs -2.81e-15 at n_dense
    # 512, OpenBLAS)
    default = command in ("projection-family", "selftest")
    cfg = _write_cfg(tmp_path, DEFAULT_CONFIG if default else SMALL)
    outputs = []
    for threads in ("1", "2"):
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                         XDG_CACHE_HOME=str(tmp_path / f"cache{threads}"))
        out = tmp_path / f"blas{threads}"
        run = subprocess.run([sys.executable, "-c",
                              "from timearrow.cli import main; main()",
                              command, "--config", cfg, "--out", str(out)],
                             env=env, check=True, capture_output=True)
        assert (b"model: built, saved" in run.stdout) == (stem in DENSE_STEMS.values())
        if command == "selftest":
            report = json.loads((out / "selftest.json").read_text())
            assert report["all_passed"]
            lyapunov = next(r for r in report["results"] if r["criterion"] == 2)
            for key in ("eig_min", "eig_max"):
                lyapunov["details"][key] = None
            outputs.append(report)
        else:
            outputs.append([(out / f"{stem}{ext}").read_bytes()
                            for ext in (".csv", ".meta.json")])
    assert outputs[0] == outputs[1]


class TestModelCache:
    """The dense commands read the model's ``v`` and ``sigma`` from
    ``$XDG_CACHE_HOME/timearrow/model-<n_sigma>.npy``, one record that also
    holds the build's key; whatever that file holds, or wherever it cannot be
    written, their outputs and exit codes are those of a fresh build."""

    @staticmethod
    def _run_in(cache, cfg, out, command="matrix-element"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("XDG_CACHE_HOME", str(cache))
            res = _run([command, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        stem = DENSE_STEMS[command]
        return res.output, [(out / f"{stem}{ext}").read_bytes()
                            for ext in (".csv", ".meta.json")]

    @pytest.mark.parametrize("k_dim", [1, 8])
    @pytest.mark.parametrize("command", sorted(DENSE_STEMS))
    def test_cold_and_hot_runs_are_byte_identical(self, tmp_path, command, k_dim):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["grid"]["k_dim"] = k_dim
        path = _write_cfg(tmp_path, cfg)
        cache = tmp_path / "cache"
        file = cache / "timearrow" / f"model-{2 * cfg['dense']['n_dense']}.npy"
        cold, cold_bytes = self._run_in(cache, path, tmp_path / "cold", command)
        hot, hot_bytes = self._run_in(cache, path, tmp_path / "hot", command)
        assert cold.splitlines()[0] == f"model: built, saved {file}"
        assert hot.splitlines()[0] == f"model: loaded {file}"
        assert hot_bytes == cold_bytes

    def test_loaded_factors_equal_the_built_ones(self, tmp_path, monkeypatch,
                                                 dense_grid, model):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _cached_model(dense_grid)
        hot = _cached_model(dense_grid)
        assert np.array_equal(hot.v, model.v) and hot.v.flags.c_contiguous
        assert np.array_equal(hot.sigma, model.sigma)

    @staticmethod
    def _rewrite(file, **fields):
        """Save ``file``'s record again, with ``fields`` in place of its own
        (the record's dtype follows each field's new dtype and shape)."""
        stored = np.load(file)
        values = {name: fields.get(name, stored[name]) for name in stored.dtype.names}
        record = np.dtype([(name, value.dtype, value.shape)
                           for name, value in values.items()])
        np.save(file, np.array(tuple(values.values()), record))

    @pytest.mark.parametrize("damage", [
        "truncated", "wrong_shape", "float32", "nan", "other_key"])
    def test_a_damaged_file_is_rebuilt(self, tmp_path, damage):
        cfg = _write_cfg(tmp_path, SMALL)
        cache = tmp_path / "cache"
        _, want = self._run_in(cache, cfg, tmp_path / "cold")
        (file,) = (cache / "timearrow").iterdir()
        v = np.load(file)["v"]
        if damage == "truncated":
            file.write_bytes(file.read_bytes()[: file.stat().st_size // 2])
        elif damage == "wrong_shape":
            self._rewrite(file, v=v[:-1])
        elif damage == "float32":
            self._rewrite(file, v=v.astype(np.float32))
        elif damage == "nan":
            v[3, 5] = np.nan
            self._rewrite(file, v=v)
        else:
            # same length, so the record's dtype still matches
            self._rewrite(file, key=np.char.upper(np.load(file)["key"]))
        output, got = self._run_in(cache, cfg, tmp_path / "again")
        assert output.startswith(f"model: built, saved {file}\n")
        assert got == want
        output, got = self._run_in(cache, cfg, tmp_path / "hot")
        assert output.startswith(f"model: loaded {file}\n")
        assert got == want

    def test_an_unwritable_location_still_succeeds(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        _, want = self._run_in(tmp_path / "cache", cfg, tmp_path / "cold")
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("")
        for run in ("first", "second"):
            output, got = self._run_in(not_a_dir, cfg, tmp_path / run)
            assert output.startswith("model: built (not cached: ")
            assert got == want

    def test_a_key_change_leaves_one_file_per_size(self, tmp_path, monkeypatch):
        cfg = _write_cfg(tmp_path, SMALL)
        cache = tmp_path / "cache"
        self._run_in(cache, cfg, tmp_path / "a")
        monkeypatch.setattr("timearrow.cli._cache_key", lambda: "edited sources")
        output, _ = self._run_in(cache, cfg, tmp_path / "b")
        assert output.startswith("model: built, saved ")
        name = f"model-{2 * SMALL['dense']['n_dense']}.npy"
        assert [p.name for p in (cache / "timearrow").iterdir()] == [name]
        assert np.load(cache / "timearrow" / name)["key"] == b"edited sources"

    def test_a_relative_xdg_cache_home_is_ignored(self, tmp_path, monkeypatch,
                                                  capsys):
        # the XDG spec: a relative path is invalid, so ~/.cache is used
        home, work = tmp_path / "home", tmp_path / "work"
        work.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", "rel")
        monkeypatch.chdir(work)
        _cached_model(make_grid(64, 20.0))
        file = home / ".cache" / "timearrow" / "model-64.npy"
        assert capsys.readouterr().out == f"model: built, saved {file}\n"
        assert file.is_file() and not any(work.iterdir())

    def test_build_model_opens_no_file(self, monkeypatch, small_grid):
        # the library itself never reads or writes the cache
        opened = []

        def refuse(*args, **kwargs):
            opened.append(args)
            raise OSError("no file may be opened here")

        monkeypatch.setattr("builtins.open", refuse)
        monkeypatch.setattr("os.open", refuse)
        model = build_model(small_grid)
        assert opened == [] and model.v.shape == (16, 16)


def test_atomic_write_failing_mid_stream_leaves_nothing(tmp_path):
    def lines():
        yield "t,value\n"
        yield "0,1\n"
        raise RuntimeError("row generator failed")

    with pytest.raises(RuntimeError, match="row generator failed"):
        _atomic_write(tmp_path / "out.csv", lines())
    assert list(tmp_path.iterdir()) == []


class TestProjectionFamilyCommand:
    def test_residuals_and_ranks(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        res = _run(["projection-family", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = _read_csv(tmp_path / "projection_family.csv")
        assert header[:2] == ["t", "rank"]
        ranks = [int(float(r[1])) for r in rows]
        assert ranks == sorted(ranks)
        assert ranks[0] == 0
        for r in rows:
            assert float(r[2]) <= 1e-8  # idempotency
            assert float(r[4]) <= 1e-8  # complement vs independent route
        g = SMALL["grid"]
        dense = make_grid(2 * SMALL["dense"]["n_dense"], g["sigma_max"], g["k_dim"])
        times = np.array([float(r[0]) for r in rows])
        ks = np.rint(times / dense.delta_tau).astype(int)
        assert ranks == list(ks * g["k_dim"])
        meta = json.loads((tmp_path / "projection_family.meta.json").read_text())
        d = meta["diagnostics"]
        assert d["ordering_spectrum_min"] >= -1e-8
        assert d["ordering_spectrum_max"] <= d["truncation_time"] + 1e-8
        last_mid = 0.5 * (times[-1] + times[-2])
        assert abs(d["ordering_spectrum_max"] - last_mid) <= 1e-10 * d["truncation_time"]


    def test_ranks_count_every_fibre(self, tmp_path):
        cfg = copy.deepcopy(SMALL)
        cfg["grid"]["k_dim"] = 4
        path = _write_cfg(tmp_path, cfg)
        res = _run(["projection-family", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 0
        _, rows = _read_csv(tmp_path / "projection_family.csv")
        dense = make_grid(2 * cfg["dense"]["n_dense"], cfg["grid"]["sigma_max"], 4)
        ks = np.rint(np.array([float(r[0]) for r in rows]) / dense.delta_tau)
        assert [int(r[1]) for r in rows] == list(4 * ks.astype(int))
        assert ks[-1] > 0

    def test_too_few_lattice_times_exit_2_and_name_t_max(self, tmp_path):
        # t_max 0.01 is below half of delta_tau (0.031 at the default grid),
        # so every time snaps to 0: the command stops before the model
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["times"]["t_max"] = 0.01
        out = tmp_path / "out"
        res = _run(["projection-family", "--config", _write_cfg(tmp_path, cfg),
                    "--out", str(out)])
        assert res.exit_code == 2
        assert _stderr(res).startswith("config error: times.t_max: 0.01 ")
        assert "delta_tau" in _stderr(res)
        assert "model:" not in res.output
        assert not out.exists()


class TestMatrixElementCommand:
    def test_pictures_agree_for_guarded_random_state(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        res = _run(["matrix-element", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = _read_csv(tmp_path / "matrix_element.csv")
        assert header[0] == "observable"
        observables = {r[0] for r in rows}
        assert observables == {"identity", "energy"}
        for r in rows:
            assert float(r[6]) <= 1e-8
        meta = json.loads((tmp_path / "matrix_element.meta.json").read_text())
        assert meta["diagnostics"] == {"times_past_half_window": 0,
                                       **TestSnappedTimes._direct(SMALL)}

    def test_times_past_the_half_window_are_counted_and_named(self, tmp_path):
        # past the half window Z(t) is zero while the unitary evolution
        # recurs, so the pictures cannot agree; the exit names that, not
        # guard-band leakage
        path = _write_cfg(tmp_path, PAST_HALF_WINDOW)
        res = _run(["matrix-element", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 1
        meta = json.loads((tmp_path / "matrix_element.meta.json").read_text())
        assert meta["diagnostics"] == {"times_past_half_window": 4,
                                       **TestSnappedTimes._direct(PAST_HALF_WINDOW)}
        err = _stderr(res)
        assert "4 of the times reach the half window t = 4.02124" in err
        assert "leakage" not in err

    def test_witness_state_reports_leakage_floor(self, tmp_path):
        # restriction of the witness loses ~0.6% of its mass below the cut;
        # the smeared profile sets an identity floor above 1e-8, which the
        # command must flag rather than absorb
        cfg = copy.deepcopy(SMALL)
        cfg["grid"] = {"n_sigma": 512, "sigma_max": 50.0, "k_dim": 1}
        cfg["dense"] = {"n_dense": 128}
        cfg["state"] = {"kind": "witness",
                        "parameters": {"mu": [25.0, -1.0], "t0": 1.0},
                        "seed": 7}
        path = _write_cfg(tmp_path, cfg)
        res = _run(["matrix-element", "--config", path, "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "exceeds" in _stderr(res)
        assert "leakage floor" in _stderr(res)
        # outputs are still written for inspection
        assert (tmp_path / "matrix_element.csv").exists()


class TestConvergenceCommand:
    def test_series_decrease_along_refinement(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL)
        res = _run(["convergence", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0
        header, rows = _read_csv(tmp_path / "convergence.csv")
        assert header[2:5] == ["simple_pole_residual", "double_pole_residual",
                               "witness_ratio_t1"]
        for col in (2, 3, 4):
            series = [float(r[col]) for r in rows]
            assert all(b < a for a, b in zip(series, series[1:]))
        assert rows[-1][5] == "continuum"


class TestSelftestCommand:
    def test_full_battery_passes_and_report_is_stable(self, tmp_path, battery,
                                                      monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        res1 = _run(["selftest", "--out", str(a)])
        assert res1.exit_code == 0, res1.output
        report = json.loads((a / "selftest.json").read_text())
        assert report["all_passed"] is True
        assert len(report["results"]) == 12
        assert [r["criterion"] for r in report["results"]] == list(range(1, 13))
        assert all(r["passed"] for r in report["results"])
        # a criterion line per check on stdout
        assert res1.output.count("criterion") >= 12

        # the second report is written from the session's own battery run
        def shared_run(n_dense, progress):
            assert n_dense == 512
            for result in battery:
                progress(result)
            return battery

        monkeypatch.setattr("timearrow.selftest.run_all", shared_run)
        res2 = _run(["selftest", "--out", str(b)])
        assert res2.exit_code == 0
        assert (a / "selftest.json").read_bytes() == (b / "selftest.json").read_bytes()


def test_cli_import_loads_no_scipy():
    # scipy is not a dependency; importing it would also add ~0.3 s to
    # every command's start-up
    code = ("import sys, timearrow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_child_env()).stdout
    assert out.strip() == "[]"


class TestSnappedTimes:
    """The scenario commands write how many config times snapped to the dual
    lattice and the largest |requested - used| into their meta diagnostics."""

    @staticmethod
    def _direct(cfg):
        # one time at a time: lattice_index rejects a time it would move
        grid = make_grid(cfg["grid"]["n_sigma"], cfg["grid"]["sigma_max"])
        snapped, largest = 0, 0.0
        for t in np.linspace(0.0, cfg["times"]["t_max"], cfg["times"]["n_steps"]):
            try:
                lattice_index(grid, t)
            except OffLatticeTimeError:
                used = _snap(grid, t)[0] * grid.delta_tau
                snapped, largest = snapped + 1, max(largest, abs(t - used))
        return {"times_snapped": snapped, "times_max_snap": largest}

    @pytest.mark.parametrize("lattice", [False, True])
    def test_meta_counts_the_snapped_times_and_the_largest_move(self, tmp_path,
                                                                 lattice):
        # delta_tau = pi / sigma_max on the scenario and the dense grid alike
        cfg = copy.deepcopy(SMALL)
        if lattice:  # six times 5 delta_tau apart, four of them off by rounding
            dt = make_grid(256, 50.0).delta_tau
            cfg["times"] = {"t_max": 25 * dt, "n_steps": 6, "snap_times": True}
            t = np.linspace(0.0, 25 * dt, 6)
            assert np.count_nonzero(t != np.arange(0, 26, 5) * dt) == 4
        want = self._direct(cfg)
        if lattice:
            assert want == {"times_snapped": 0, "times_max_snap": 0.0}
        else:
            assert want["times_snapped"] == 4 and want["times_max_snap"] > 0
        path = _write_cfg(tmp_path, cfg)
        for command in SCENARIOS:
            res = _run([command, "--config", path, "--out", str(tmp_path)])
            assert res.exit_code == 0
            meta = tmp_path / f"{command.replace('-', '_')}.meta.json"
            notes = json.loads(meta.read_text())["diagnostics"]
            assert {key: notes[key] for key in want} == want, command


class TestExitPath:
    """Every command-line process freezes its heap at exit (``atexit`` runs
    ``gc.freeze``), so the interpreter's shutdown collection skips it; stdout,
    stderr and exit codes stay those of a plain exit."""

    @pytest.mark.parametrize("command", SCENARIOS)
    def test_one_wrote_line_on_a_pipe(self, tmp_path, command):
        run = _cli_process([command, "--config", _write_cfg(tmp_path, SMALL),
                            "--out", str(tmp_path)])
        assert run.returncode == 0, run.stderr
        wrote = [line for line in run.stdout.splitlines() if line.startswith("wrote: ")]
        assert wrote == [f"wrote: {tmp_path / command.replace('-', '_')}.csv"]

    @pytest.mark.parametrize("command, cfg, code, message", [
        ("--version", None, 0, r"^timearrow, version "),
        ("--help", None, 0, r"^Usage: timearrow "),
        ("lyapunov-curve", SMALL, 0, r"^wrote: "),
        ("lyapunov-curve", {"grid": {"n_sigma": 1000}}, 2,
         r"^config error: grid\.n_sigma"),
        ("matrix-element", PAST_HALF_WINDOW, 1,
         r"^tolerance violation: picture mismatch"),
    ], ids=["version", "help", "command", "config-error", "violation"])
    def test_every_exit_freezes_the_heap(self, tmp_path, command, cfg, code, message):
        # registered before timearrow.cli is imported, this handler runs
        # after the CLI's own: atexit runs handlers last in, first out
        prelude = ("import atexit, gc, sys\n"
                   "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
                   " file=sys.stderr))\n")
        args = [command]
        if cfg is not None:
            args += ["--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)]
        run = _cli_process(args, prelude)
        assert run.returncode == code, run.stderr
        assert re.search(message, run.stdout if code == 0 else run.stderr, re.M), run
        frozen = re.search(r"^frozen (\d+)$", run.stderr, re.M)
        assert frozen and int(frozen.group(1)) > 0, run.stderr

    def test_in_process_runs_freeze_nothing(self, tmp_path):
        res = _run(["lyapunov-curve", "--config", _write_cfg(tmp_path, SMALL),
                    "--out", str(tmp_path)])
        assert res.exit_code == 0
        assert gc.get_freeze_count() == 0


def test_scenario_commands_leave_no_file_open(tmp_path):
    # a frozen exit no longer reports a file left for the collector to close,
    # so look for one here
    cfg = _write_cfg(tmp_path, SMALL)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for command in SCENARIOS:
            assert _run([command, "--config", cfg, "--out", str(tmp_path)]).exit_code == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
