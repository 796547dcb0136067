"""Experiment configuration: one JSON file fully determines a run.

A config has five required sections — ``grid``, ``dense``, ``times``,
``state``, ``tolerances`` — with the field layout shown in
:data:`DEFAULT_CONFIG`.  Validation is strict and total: every problem in
the file is collected and reported with its field path (missing fields,
unknown keys, wrong types, out-of-range values), so a bad config never
half-runs an experiment.  A run whose estimated peak memory exceeds the
machine's physical memory is rejected the same way, naming the field that
drives the estimate; ``selftest`` has its own estimate
(:func:`selftest_memory_estimate`), checked by :func:`check_selftest_memory`.
"""

from __future__ import annotations

import copy
import json
import math
import os

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "check_selftest_memory",
    "load_config",
    "peak_memory_estimate",
    "selftest_memory_estimate",
    "validate_config",
]


DEFAULT_CONFIG = {
    "grid": {"n_sigma": 1024, "sigma_max": 100.0, "k_dim": 1},
    "dense": {"n_dense": 512},
    "times": {"t_max": 8.0, "n_steps": 33, "snap_times": True},
    "state": {
        "kind": "random",
        "parameters": {"n_terms": 4},
        "seed": 1234,
    },
    "tolerances": {"algebraic": 1.0e-8, "continuum": 0.05},
}


# Peak-memory model of the scenario commands, fitted with headroom to peak
# RSS measured with one BLAS thread (x86-64 Linux, Python 3.11, numpy 2.4.6,
# OpenBLAS): matrix-element at n_dense 1024 168 MB, projection-family at
# n_dense 512 69 MB (80 MB at 128 bins x k_dim 4), lyapunov-curve at n_sigma
# 2^20 179 MB; per time step (CSV rows streamed to disk) matrix-element 120 B,
# semigroup-norms 52 B, lyapunov-curve 48 B (61 MB at 200000 steps and
# n_dense 64, 49 MB, 82 MB at 10^6 steps).  Matrices are N x N complex, N =
# n_dense * k_dim.
_BASE_BYTES = 40 * 2**20  # interpreter, numpy and click
_DENSE_MATRICES = 12
_FFT_VECTORS = 12
_BYTES_PER_STEP = 256  # per-time arrays of times and results
_COMPLEX_BYTES = 16
# selftest criterion 1 holds about six complex full-line matrices of
# (2 n_dense)^2 entries (tracemalloc peak 96 MB at n_dense 512) next to the
# dense model: peak RSS 138 MB at n_dense 512, measured as above; at 256 the
# fixed 1024-bin grid of criterion 11 sets the peak, 78-84 MB.
_FULL_LINE_MATRICES = 10


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists one message per field."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _is_number(x) -> bool:
    # finite only: JSON's Infinity and NaN parse to floats
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) < math.inf


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_keys(section: dict, path: str, required, optional=(), *, out=None):
    for key in required:
        if key not in section:
            out.append(f"{path}.{key}: missing required field")
    for key in section:
        if key not in required and key not in optional:
            out.append(f"{path}.{key}: unknown field")


def _validate_state_parameters(kind: str, params: dict, out: list[str]) -> None:
    path = "state.parameters"
    if kind == "witness":
        _check_keys(params, path, ("mu", "t0"), out=out)
        mu = params.get("mu")
        if mu is not None:
            if (
                not isinstance(mu, (list, tuple))
                or len(mu) != 2
                or not all(_is_number(x) for x in mu)
            ):
                out.append(f"{path}.mu: expected [re, im] pair of numbers")
            elif not mu[1] < 0:
                out.append(f"{path}.mu: Im(mu) must be negative, got {mu[1]}")
        t0 = params.get("t0")
        if t0 is not None and (not _is_number(t0) or not t0 > 0):
            out.append(f"{path}.t0: expected a positive number, got {t0!r}")
    elif kind == "rational":
        _check_keys(params, path, ("poles",), out=out)
        poles = params.get("poles")
        if poles is not None:
            if not isinstance(poles, list) or not poles:
                out.append(f"{path}.poles: expected a non-empty list")
            else:
                for i, pole in enumerate(poles):
                    if (
                        not isinstance(pole, (list, tuple))
                        or len(pole) != 3
                        or not all(_is_number(x) for x in pole[:2])
                        or not _is_int(pole[2])
                    ):
                        out.append(
                            f"{path}.poles[{i}]: expected [re, im, order] with "
                            "integer order"
                        )
                        continue
                    if not pole[1] < 0:
                        out.append(
                            f"{path}.poles[{i}]: Im(mu) must be negative, got {pole[1]}"
                        )
                    if pole[2] not in (1, 2):
                        out.append(
                            f"{path}.poles[{i}]: order must be 1 or 2, got {pole[2]}"
                        )
    elif kind == "random":
        _check_keys(params, path, ("n_terms",), out=out)
        n_terms = params.get("n_terms")
        if n_terms is not None and (not _is_int(n_terms) or n_terms < 1):
            out.append(f"{path}.n_terms: expected an integer >= 1, got {n_terms!r}")


def validate_config(cfg) -> list[str]:
    """Return a list of problems (empty when the config is valid)."""
    out: list[str] = []
    if not isinstance(cfg, dict):
        return ["config: expected a JSON object at top level"]
    _check_keys(cfg, "config", ("grid", "dense", "times", "state", "tolerances"), out=out)
    for name in ("grid", "dense", "times", "state", "tolerances"):
        if name in cfg and not isinstance(cfg[name], dict):
            out.append(f"{name}: expected an object")

    grid = cfg.get("grid")
    if isinstance(grid, dict):
        _check_keys(grid, "grid", ("n_sigma", "sigma_max", "k_dim"), out=out)
        n_sigma = grid.get("n_sigma")
        if n_sigma is not None and (
            not _is_int(n_sigma) or n_sigma < 8 or not _power_of_two(n_sigma)
        ):
            out.append(
                f"grid.n_sigma: expected a power of two >= 8, got {n_sigma!r}"
            )
        sigma_max = grid.get("sigma_max")
        if sigma_max is not None and (not _is_number(sigma_max) or not sigma_max > 0):
            out.append(f"grid.sigma_max: expected a positive number, got {sigma_max!r}")
        k_dim = grid.get("k_dim")
        if k_dim is not None and (not _is_int(k_dim) or k_dim < 1):
            out.append(f"grid.k_dim: expected an integer >= 1, got {k_dim!r}")

    dense = cfg.get("dense")
    if isinstance(dense, dict):
        _check_keys(dense, "dense", ("n_dense",), out=out)
        n_dense = dense.get("n_dense")
        if n_dense is not None and (
            not _is_int(n_dense) or n_dense < 4 or not _power_of_two(n_dense)
        ):
            out.append(
                f"dense.n_dense: expected a power of two >= 4, got {n_dense!r}"
            )

    times = cfg.get("times")
    if isinstance(times, dict):
        _check_keys(times, "times", ("t_max", "n_steps", "snap_times"), out=out)
        t_max = times.get("t_max")
        if t_max is not None and (not _is_number(t_max) or not t_max > 0):
            out.append(f"times.t_max: expected a positive number, got {t_max!r}")
        n_steps = times.get("n_steps")
        if n_steps is not None and (not _is_int(n_steps) or n_steps < 2):
            out.append(f"times.n_steps: expected an integer >= 2, got {n_steps!r}")
        snap = times.get("snap_times")
        if snap is not None and not isinstance(snap, bool):
            out.append(f"times.snap_times: expected true/false, got {snap!r}")

    state = cfg.get("state")
    if isinstance(state, dict):
        _check_keys(state, "state", ("kind", "parameters", "seed"), out=out)
        kind = state.get("kind")
        if kind is not None and kind not in ("rational", "witness", "random"):
            out.append(
                f"state.kind: expected one of rational|witness|random, got {kind!r}"
            )
        seed = state.get("seed")
        if seed is not None and (not _is_int(seed) or seed < 0 or seed > 2**64 - 1):
            out.append(f"state.seed: expected an integer in [0, 2^64), got {seed!r}")
        params = state.get("parameters")
        if params is not None and not isinstance(params, dict):
            out.append("state.parameters: expected an object")
        elif isinstance(params, dict) and kind in ("rational", "witness", "random"):
            _validate_state_parameters(kind, params, out)

    tolerances = cfg.get("tolerances")
    if isinstance(tolerances, dict):
        _check_keys(tolerances, "tolerances", ("algebraic", "continuum"), out=out)
        for field in ("algebraic", "continuum"):
            val = tolerances.get(field)
            if val is not None and (not _is_number(val) or not val > 0):
                out.append(
                    f"tolerances.{field}: expected a positive number, got {val!r}"
                )
    return out


def peak_memory_estimate(cfg: dict) -> tuple[int, str]:
    """Estimated peak bytes of a scenario run on a valid config.

    Returns the bytes and the field whose term dominates them: the FFT tier
    (``grid.n_sigma``), the dense tier (``dense.n_dense``) or the per-time
    rows (``times.n_steps``).  The estimate bounds the measured peaks of the
    scenario commands.
    """
    k_dim = cfg["grid"]["k_dim"]
    rows = cfg["dense"]["n_dense"] * k_dim
    terms = {
        "grid.n_sigma": _FFT_VECTORS * _COMPLEX_BYTES * cfg["grid"]["n_sigma"] * k_dim,
        "dense.n_dense": _DENSE_MATRICES * _COMPLEX_BYTES * rows**2,
        "times.n_steps": _BYTES_PER_STEP * cfg["times"]["n_steps"],
    }
    return _BASE_BYTES + sum(terms.values()), max(terms, key=terms.get)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _memory_problem(need: int, field: str, what: str) -> list[str]:
    have = _physical_memory()
    if need <= have:
        return []
    return [
        f"{field}: {what} needs about {need / 2**20:.4g} MB at peak "
        f"(estimated), more than the {have / 2**20:.4g} MB of physical memory"
    ]


def selftest_memory_estimate(cfg: dict) -> int:
    """Estimated peak bytes of ``selftest`` on a valid config.

    ``selftest`` ignores the grid and time sections and works at
    ``k_dim = 1``: the dense model's matrices plus criterion 1's full-line
    projection matrices, both set by ``dense.n_dense``.
    """
    rows = cfg["dense"]["n_dense"]
    matrices = _DENSE_MATRICES * rows**2 + _FULL_LINE_MATRICES * (2 * rows) ** 2
    return _BASE_BYTES + _COMPLEX_BYTES * matrices


def check_selftest_memory(cfg: dict) -> None:
    """Raise :class:`ConfigError` naming ``dense.n_dense`` when
    :func:`selftest_memory_estimate` exceeds physical memory."""
    need = selftest_memory_estimate(cfg)
    problems = _memory_problem(need, "dense.n_dense", "selftest")
    if problems:
        raise ConfigError(problems)


def load_config(path: str | None) -> dict:
    """Load and validate a config file; ``None`` returns the default config.

    Raises :class:`ConfigError` with the full problem list on any failure,
    including a valid config whose :func:`peak_memory_estimate` exceeds
    physical memory.
    """
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config: file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from None
    problems = validate_config(cfg) or _memory_problem(
        *peak_memory_estimate(cfg), "the run"
    )
    if problems:
        raise ConfigError(problems)
    return cfg
