"""Record the golden outputs under tests/golden/.

    PYTHONPATH=src python tests/make_golden.py

Runs every command on the default config and the three dense commands at
k_dim 8, each in its own interpreter on one BLAS thread.  Each case starts
from an empty model cache, so its first dense command builds the model and
the others load it.  The CSV, ``.meta.json`` and ``selftest.json`` files go
to ``tests/golden/<case>/``, and the environment's fingerprint (numpy, its
BLAS build, the machine and the SIMD features numpy found) to
``tests/golden/fingerprint.json``.  ``test_golden.py`` runs the same cases
and compares.  Run this only at a commit whose outputs are trusted, and say
so when the files change.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from timearrow import DEFAULT_CONFIG

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# case -> (config overrides, commands in run order); a case's first dense
# command runs on a cold model cache, the others on a hot one
CASES = {
    "default": ({}, ("lyapunov-curve", "semigroup-norms", "projection-family",
                     "matrix-element", "convergence", "selftest")),
    "k8": ({"grid": {"k_dim": 8}}, ("matrix-element", "projection-family",
                                    "semigroup-norms")),
}

ENTRY = "from timearrow.cli import main; main(prog_name='timearrow')"


def fingerprint() -> dict:
    """What decides the last bits of a float: numpy, BLAS, machine, SIMD."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": config["Machine Information"]["host"],
        "simd": config["SIMD Extensions"],
    }


def run_case(case: str, out: Path) -> dict[str, str]:
    """Run ``case``'s commands into ``out`` with one BLAS thread and a fresh
    model cache; return each command's stdout."""
    overrides, commands = CASES[case]
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for section, fields in overrides.items():
        cfg[section].update(fields)
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp, "config.json")
        config_path.write_text(json.dumps(cfg))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", XDG_CACHE_HOME=str(Path(tmp, "cache")))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        stdout = {}
        for command in commands:
            run = subprocess.run(
                [sys.executable, "-c", ENTRY, command, "--config", str(config_path),
                 "--out", str(out)],
                env=env, capture_output=True, text=True, check=False,
            )
            if run.returncode != 0:
                raise RuntimeError(f"{case} {command}: exit {run.returncode}\n{run.stderr}")
            stdout[command] = run.stdout
    return stdout


def main() -> int:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in CASES:
        run_case(case, GOLDEN / case)
        print(f"{case}: {sorted(p.name for p in (GOLDEN / case).iterdir())}")
    (GOLDEN / "fingerprint.json").write_text(
        json.dumps(fingerprint(), sort_keys=True, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
