"""Experiment configuration: one JSON file fully determines a run.

A config has five required sections — ``grid``, ``dense``, ``times``,
``state``, ``tolerances`` — with the field layout shown in
:data:`DEFAULT_CONFIG`.  Validation is strict and total: every problem in
the file is collected and reported with its field path (missing fields,
unknown keys, wrong types, out-of-range values), so a bad config never
half-runs an experiment.  Every command, the built-in default config
included, is admitted here and only here: a run whose estimated peak memory
(:func:`peak_memory_estimate`, one model for all six commands, charging each
only for the config fields it reads) exceeds the machine's physical memory
is rejected the same way, naming the field that drives the estimate.
"""

from __future__ import annotations

import copy
import json
import math
import os

from .evolution import _BLOCK_COLUMNS

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "peak_memory_estimate",
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


# Peak-memory model: a base (interpreter, numpy and click) plus, per command,
# the terms of only the config fields that the command reads, in bytes per
# unit of each term (columns of _CHARGES):
#   fft       per entry of the FFT tier's complex n_sigma vectors: the phase
#             table and the time grid at any k_dim, and per fibre the
#             transform buffer, the state and its power
#   dense     per n_dense^2 entry at any k_dim (the model, its forms and
#             products; selftest's criteria at k_dim 1)
#   residual  per E^2 entry, E = min(round(t_max sigma_max / pi), n_dense) the
#             last row end: projection-family's two real E x E blocks
#   blocks    per entry of the blocks of states, n_dense k_dim rows and up to
#             _BLOCK_COLUMNS columns each (projection-family holds no state,
#             and no array longer than n_dense: its spectrum is one fibre's)
#   steps     per time step: per-time arrays, CSV rows streamed to disk
#   floor     least charge of the dense term: the fixed grids of selftest's
#             criteria 8 and 11, whatever n_dense
# The values bound peak RSS measured with one BLAS thread; the measured peaks
# and the bounds held to them are in tests/test_config.py.
_BASE_BYTES = 40 * 2**20
_FFT_TABLES = 4  # complex n_sigma vectors at any k_dim
_FFT_VECTORS = 3  # complex n_sigma vectors per fibre
_SCENARIO_CHARGES = {
    #                    fft dense residual blocks steps floor
    "lyapunov-curve":    (16, 0, 0, 0, 64, 0),
    "semigroup-norms":   (16, 16, 0, 128, 80, 0),
    "projection-family": (0, 24, 16, 0, 64, 0),
    "matrix-element":    (0, 16, 0, 128, 160, 0),
    "convergence":       (0, 0, 0, 0, 0, 0),
}
_CHARGES = {
    **_SCENARIO_CHARGES,
    "selftest": (0, 480, 0, 0, 0, 48 * 2**20),
    # no command named: the largest of each term over the scenario commands
    None: tuple(map(max, *_SCENARIO_CHARGES.values())),
}


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


def peak_memory_estimate(cfg: dict, command: str | None = None) -> tuple[int, str]:
    """Estimated peak bytes of ``command`` on a valid config.

    Returns the bytes and the field whose term dominates them: the FFT tier
    (``grid.n_sigma``), the dense tier (``dense.n_dense``: the command's
    matrices and blocks of states) or the per-time rows (``times.n_steps``).
    Each command is charged only for the fields it reads; ``None`` is
    charged the largest term of any scenario command.  A command whose terms
    are all zero names ``config``; a name that is no command is a ValueError.
    """
    if command not in _CHARGES:
        raise ValueError(f"unknown command {command!r}")
    fft, dense, residual, blocks, steps, floor = _CHARGES[command]
    grid, n_dense, times = cfg["grid"], cfg["dense"]["n_dense"], cfg["times"]
    # projection-family's last row end E, the lattice index of t_max
    rows = round(min(times["t_max"] * grid["sigma_max"] / math.pi, n_dense))
    block = n_dense * grid["k_dim"] * min(times["n_steps"], _BLOCK_COLUMNS)
    terms = {
        "grid.n_sigma": fft * (_FFT_TABLES + _FFT_VECTORS * grid["k_dim"])
        * grid["n_sigma"],
        "dense.n_dense": max(dense * n_dense**2, floor) + residual * rows**2
        + blocks * block,
        "times.n_steps": steps * times["n_steps"],
    }
    field = max(terms, key=terms.get) if any(terms.values()) else "config"
    return _BASE_BYTES + sum(terms.values()), field


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def load_config(path: str | None, command: str | None = None) -> dict:
    """Load and validate a config file; ``None`` loads the default config.

    Raises :class:`ConfigError` with the full problem list on any failure,
    including a valid config whose :func:`peak_memory_estimate` for
    ``command`` (a CLI command name, or ``None``) exceeds physical memory.
    """
    if path is None:
        cfg = copy.deepcopy(DEFAULT_CONFIG)
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError([f"config: file not found: {path}"]) from None
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON: {exc}"]) from None
    problems = validate_config(cfg)
    if not problems:
        need, field = peak_memory_estimate(cfg, command)
        have = _physical_memory()
        if need > have:
            problems = [
                f"{field}: the run needs about {need / 2**20:.4g} MB at peak "
                f"(estimated), more than the {have / 2**20:.4g} MB of physical memory"
            ]
    if problems:
        raise ConfigError(problems)
    return cfg
