"""Workloads of the CLI benchmark: generated configs, commands and output checks.

Each workload draws its request configs from a fixed pool of ``POOL_SIZE``
entries.  Pool entry ``j`` of workload ``w`` is generated from the string
seed ``"w/j"``, so it is the same on every machine, and the outputs of every
entry were recorded once in ``reference.json`` (see ``make_reference.py``).
The run seed only chooses which pool entries are sent, and in which order.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

POOL_SIZE = 24
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The CLI's built-in default config, restated so that the benchmark does not
# import the program it measures.
BASE_CONFIG = {
    "grid": {"n_sigma": 1024, "sigma_max": 100.0, "k_dim": 1},
    "dense": {"n_dense": 512},
    "times": {"t_max": 8.0, "n_steps": 33, "snap_times": True},
    "state": {"kind": "random", "parameters": {"n_terms": 4}, "seed": 1234},
    "tolerances": {"algebraic": 1.0e-8, "continuum": 0.05},
}


def _curve_config(rng: random.Random) -> dict:
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["grid"]["n_sigma"] = 65536
    cfg["times"]["n_steps"] = 129
    cfg["state"]["seed"] = rng.getrandbits(32)
    return cfg


def _family_config(rng: random.Random) -> dict:
    # t_max stays below the half window (about 16 at this tier), so every
    # one of the 33 times is a distinct lattice index below n_dense.
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["times"]["t_max"] = round(rng.uniform(4.0, 12.0), 3)
    return cfg


def _transport_config(rng: random.Random) -> dict:
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["dense"]["n_dense"] = 1024
    cfg["state"]["seed"] = rng.getrandbits(32)
    return cfg


@dataclass(frozen=True)
class Workload:
    """One CLI scenario, its thread settings and the shape of its output."""

    name: str
    command: str
    stem: str
    header: tuple[str, ...]
    threads: int
    blas_threads: int
    make_config: Callable[[random.Random], dict]

    def config(self, index: int) -> dict:
        """Config of pool entry ``index``."""
        return self.make_config(random.Random(f"{self.name}/{index}"))

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
            "--threads",
            str(self.threads),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="curve",
            command="lyapunov-curve",
            stem="lyapunov_curve",
            header=("t", "expectation", "norm", "tolerance_class"),
            threads=1,
            blas_threads=1,
            make_config=_curve_config,
        ),
        Workload(
            name="family",
            command="projection-family",
            stem="projection_family",
            header=(
                "t",
                "rank",
                "idempotency_residual",
                "nesting_residual",
                "complement_residual",
                "tolerance_class",
            ),
            threads=1,
            blas_threads=1,
            make_config=_family_config,
        ),
        Workload(
            name="transport",
            command="matrix-element",
            stem="matrix_element",
            header=(
                "observable",
                "t",
                "reversible_re",
                "reversible_im",
                "irreversible_re",
                "irreversible_im",
                "abs_difference",
                "tolerance_class",
            ),
            threads=2,
            blas_threads=1,
            make_config=_transport_config,
        ),
    )
}


def request_stream(workload: str, seed: int) -> Iterator[int]:
    """Endless sequence of pool indices for one run; a function of the seed."""
    rng = random.Random(f"{workload}/seed/{seed}")
    while True:
        yield rng.randrange(POOL_SIZE)


def config_text(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


def dense_lattice(cfg: dict) -> tuple[np.ndarray, float]:
    """Distinct lattice indices of the config's times on the dense grid.

    Restates the grid arithmetic of the model (``2 * n_dense`` energy bins,
    ``delta_tau = 2 pi / (delta_sigma * n)``) without calling it.
    """
    n = 2 * cfg["dense"]["n_dense"]
    delta_sigma = 2.0 * cfg["grid"]["sigma_max"] / n
    delta_tau = (2.0 * math.pi / delta_sigma) / n
    t = cfg["times"]
    ratio = np.linspace(0.0, t["t_max"], t["n_steps"]) / delta_tau
    return np.unique(np.rint(ratio).astype(np.int64)), delta_tau


def expected_rows(workload: Workload, cfg: dict) -> int:
    n_steps = cfg["times"]["n_steps"]
    if workload.name == "family":
        return int(dense_lattice(cfg)[0].size)
    if workload.name == "transport":
        return 2 * n_steps  # identity and energy observables
    return n_steps


def reference_cell(cell: str):
    """Stored form of one CSV cell: a number to 12 digits, else the text."""
    try:
        return float(f"{float(cell):.12g}")
    except ValueError:
        return cell


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_outputs(
    workload: Workload, cfg: dict, reference: list | None, out_dir: Path
) -> list[str]:
    """Problems with one request's outputs; empty when they are correct.

    Checks the header and row count, that the ``.meta.json`` echoes the
    config, for ``family`` that each rank equals its lattice index (rank is
    ``k * k_dim`` by construction), and that every cell matches the
    reference rows: text exactly, numbers within ``tolerances.algebraic``.
    """
    csv_path = out_dir / f"{workload.stem}.csv"
    meta_path = out_dir / f"{workload.stem}.meta.json"
    if not csv_path.is_file() or not meta_path.is_file():
        return [f"missing {csv_path.name} or {meta_path.name}"]
    problems = []
    with open(meta_path, encoding="utf-8") as fh:
        if json.load(fh).get("config") != cfg:
            problems.append("meta.json does not echo the config")
    rows = read_csv(csv_path)
    header, body = tuple(rows[0]) if rows else (), rows[1:]
    if header != workload.header:
        problems.append(f"header {header}")
    if len(body) != expected_rows(workload, cfg):
        problems.append(f"{len(body)} rows, expected {expected_rows(workload, cfg)}")
        return problems
    if any(len(row) != len(workload.header) for row in body):
        problems.append("a row has the wrong number of cells")
        return problems
    tol = cfg["tolerances"]["algebraic"]
    if workload.name == "family":
        ks, delta_tau = dense_lattice(cfg)
        k_dim = cfg["grid"]["k_dim"]
        for row, k in zip(body, ks):
            if int(row[1]) != k * k_dim:
                problems.append(f"rank {row[1]} at lattice index {k}")
            if not abs(float(row[0]) - k * delta_tau) <= tol:
                problems.append(f"t = {row[0]} is not lattice time {k}")
    if reference is None:
        problems.append("no reference rows for this config")
        return problems
    for i, (row, ref) in enumerate(zip(body, reference)):
        for j, (cell, want) in enumerate(zip(row, ref)):
            if isinstance(want, str):
                ok = cell == want
            else:
                ok = abs(float(cell) - want) <= tol
            if not ok:
                problems.append(f"row {i} {header[j]} = {cell}, reference {want}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_rows(reference: dict, workload: Workload, index: int, cfg: dict):
    """Reference rows of a pool entry, or None if the entry's config drifted."""
    entries = reference["workloads"].get(workload.name, [])
    if index >= len(entries) or entries[index]["config_sha256"] != config_digest(cfg):
        return None
    return entries[index]["rows"]
