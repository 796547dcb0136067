"""Experiment configuration: one JSON file fully determines a run.

A config has five required sections — ``grid``, ``dense``, ``times``,
``state``, ``tolerances`` — with the field layout shown in
:data:`DEFAULT_CONFIG`.  Validation is strict and total: every problem in
the file is collected and reported with its field path (missing fields,
unknown keys, wrong types, ``null``, out-of-range values), so a bad config
never half-runs an experiment.  Every command, the built-in default config
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
#             and no array longer than n_dense: T's extremes are its weights)
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


def _rule(ok, phrase):
    """A field's rule: ``expected <phrase>, got <value>`` unless ``ok(value)``."""
    return lambda path, x: [] if ok(x) else [f"{path}: expected {phrase}, got {x!r}"]


def _power_of_two_from(least: int):
    return _rule(lambda n: _is_int(n) and n >= least and n & (n - 1) == 0,
                 f"a power of two >= {least}")


def _int_from(least: int):
    return _rule(lambda n: _is_int(n) and n >= least, f"an integer >= {least}")


_positive = _rule(lambda x: _is_number(x) and x > 0, "a positive number")


def _mu(path: str, mu) -> list[str]:
    if (not isinstance(mu, (list, tuple)) or len(mu) != 2
            or not all(_is_number(x) for x in mu)):
        return [f"{path}: expected [re, im] pair of numbers"]
    return [] if mu[1] < 0 else [f"{path}: Im(mu) must be negative, got {mu[1]}"]


def _poles(path: str, poles) -> list[str]:
    if not isinstance(poles, list) or not poles:
        return [f"{path}: expected a non-empty list"]
    out = []
    for at, pole in ((f"{path}[{i}]", pole) for i, pole in enumerate(poles)):
        if (not isinstance(pole, (list, tuple)) or len(pole) != 3
                or not all(_is_number(x) for x in pole[:2]) or not _is_int(pole[2])):
            out.append(f"{at}: expected [re, im, order] with integer order")
            continue
        if not pole[1] < 0:
            out.append(f"{at}: Im(mu) must be negative, got {pole[1]}")
        if pole[2] not in (1, 2):
            out.append(f"{at}: order must be 1 or 2, got {pole[2]}")
    return out


# state.parameters: one table per state kind
_PARAMETERS = {
    "rational": {"poles": _poles},
    "witness": {"mu": _mu, "t0": _positive},
    "random": {"n_terms": _int_from(1)},
}
# Every section of DEFAULT_CONFIG, its fields in the same order, each with its
# rule, or with a table of its own where the field is an object.
_FIELDS = {
    "grid": {
        "n_sigma": _power_of_two_from(8),
        "sigma_max": _positive,
        "k_dim": _int_from(1),
    },
    "dense": {"n_dense": _power_of_two_from(4)},
    "times": {
        "t_max": _positive,
        "n_steps": _int_from(2),
        "snap_times": _rule(lambda x: isinstance(x, bool), "true/false"),
    },
    "state": {
        # a tuple compares by ==, so a list (unhashable) is only a wrong kind
        "kind": _rule(lambda x: x in tuple(_PARAMETERS),
                      "one of rational|witness|random"),
        "parameters": _PARAMETERS,
        "seed": _rule(lambda x: _is_int(x) and 0 <= x < 2**64,
                      "an integer in [0, 2^64)"),
    },
    "tolerances": {"algebraic": _positive, "continuum": _positive},
}


def _check(obj: dict, table: dict, path: str = "") -> list[str]:
    """``obj``'s problems against ``table``: missing fields, unknown fields,
    each present field's rule in table order, then object fields that are not
    objects, then the others' contents.  A present field is always checked."""
    prefix = f"{path}." if path else ""
    out = [f"{path or 'config'}.{key}: missing required field"
           for key in table if key not in obj]
    out += [f"{path or 'config'}.{key}: unknown field"
            for key in obj if key not in table]
    present = [key for key in table if key in obj]
    for key in present:
        if callable(table[key]):
            out += table[key](prefix + key, obj[key])
    objects = [key for key in present if not callable(table[key])]
    out += [f"{prefix}{key}: expected an object"
            for key in objects if not isinstance(obj[key], dict)]
    for key in objects:
        sub = table[key]
        if sub is _PARAMETERS:  # the table of the state's kind, if it has one
            sub = next((t for kind, t in sub.items() if kind == obj.get("kind")), None)
        if sub is not None and isinstance(obj[key], dict):
            out += _check(obj[key], sub, prefix + key)
    return out


def validate_config(cfg) -> list[str]:
    """Return a list of problems (empty when the config is valid)."""
    if not isinstance(cfg, dict):
        return ["config: expected a JSON object at top level"]
    return _check(cfg, _FIELDS)


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
