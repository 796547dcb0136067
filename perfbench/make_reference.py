"""Record the reference outputs of every pool entry into reference.json.

    python3 perfbench/make_reference.py [WORKLOAD...]

Runs each pool entry of the named workloads (all by default) once through
the CLI, with the same entry point and thread settings as ``run.py``, and
stores its CSV rows, numbers to 12 significant digits.  The stored rows are
what later runs are checked against, so run this only at a commit whose
outputs are trusted, and say so when the file changes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import scenarios


def record(workload: scenarios.Workload) -> list[dict]:
    env = run.child_env(workload)
    entries = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for index in range(scenarios.POOL_SIZE):
            cfg = workload.config(index)
            req_dir = Path(tmp) / f"entry{index:02d}"
            req_dir.mkdir()
            config_path = req_dir / "config.json"
            config_path.write_text(scenarios.config_text(cfg), encoding="utf-8")
            out_dir = req_dir / "out"
            argv = ["-c", run.ENTRY, *workload.cli_args(config_path, out_dir)]
            outcome = run.spawn(argv, env, req_dir / "log")
            if outcome.exit_code != 0:
                raise SystemExit(f"{workload.name} entry {index}: exit {outcome.exit_code}")
            problems = scenarios.check_outputs(workload, cfg, None, out_dir)
            if problems != ["no reference rows for this config"]:
                raise SystemExit(f"{workload.name} entry {index}: {problems}")
            rows = scenarios.read_csv(out_dir / f"{workload.stem}.csv")[1:]
            entries.append(
                {
                    "config_sha256": scenarios.config_digest(cfg),
                    "rows": [[scenarios.reference_cell(c) for c in row] for row in rows],
                }
            )
            print(f"{workload.name} {index}: {outcome.wall_s:.2f} s", flush=True)
    return entries


def main(names: list[str]) -> int:
    path = scenarios.REFERENCE_PATH
    data = scenarios.load_reference() if path.is_file() else {"workloads": {}}
    data.update(run.source_identity(), pool_size=scenarios.POOL_SIZE)
    for name in names or list(scenarios.WORKLOADS):
        data["workloads"][name] = record(scenarios.WORKLOADS[name])
    # one pool entry per line keeps diffs of this file readable
    lines = ["{"]
    for key in sorted(k for k in data if k != "workloads"):
        lines.append(f"{json.dumps(key)}: {json.dumps(data[key])},")
    lines.append('"workloads": {')
    names_sorted = sorted(data["workloads"])
    for i, name in enumerate(names_sorted):
        lines.append(f"{json.dumps(name)}: [")
        entries = data["workloads"][name]
        for j, entry in enumerate(entries):
            sep = "," if j < len(entries) - 1 else ""
            lines.append(json.dumps(entry, separators=(",", ":")) + sep)
        lines.append("]," if i < len(names_sorted) - 1 else "]")
    lines.append("}}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
