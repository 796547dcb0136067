"""CLI-scenario benchmark of timearrow.

    python3 perfbench/run.py --workload {curve,family,transport,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Each request is a fresh ``timearrow.cli:main`` process, run through the
interpreter against ``src/`` on a config generated from the seed (see
``scenarios.py``).  One client sends the requests in a closed loop: the next
starts when the previous one has exited, until the next would end after
``--seconds``.  Every request's outputs are checked (``scenarios.
check_outputs``); a nonzero exit or a failed check counts as a failure.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s`` -- median wall time of ``--version`` through the same entry
  point (interpreter start plus importing numpy, click and the package);
* ``latency_p50_s`` -- median wall time per request, spawn to exit;
* ``cpu_s`` -- median user+sys CPU time per request, from ``os.wait4``;
* ``peak_rss_mb`` -- median peak RSS per request, ``ru_maxrss`` from
  ``os.wait4``.

The three times are stated at nominal machine speed (see ``SpeedProbe``);
the unscaled medians are printed too.

``--trace 1`` runs each request twice, untraced and through ``tracer.py``
(order alternating), checks that both wrote byte-identical outputs, and
reports the medians over requests of the per-layer statistics in
``LAYER_METRICS`` (see ``spans.py``), the traced/untraced wall-time ratio
and the share of traced wall time outside the top-level spans.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit and sample count, the error rate, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import scenarios
import spans as spanstats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().with_name("tracer.py")
PROBE = Path(__file__).resolve().with_name("probe.py")
WORK_ROOT = ROOT / ".perfbench-work"
ENTRY = "from timearrow.cli import main; main(prog_name='timearrow')"

SETUP_REPEATS = 7
# Time of probe.py's job at nominal speed: about its median over the runs
# that set the bounds in BENCHMARK.json, on a shared 2-core x86-64 VM
# (Python 3.11, numpy 2.4 with OpenBLAS).
PROBE_NOMINAL_S = 0.55
MIN_REQUESTS = 3
REQUEST_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _layer(name: str, *stats: str) -> dict[str, str]:
    units = {
        "calls": "count",
        "self_s": "s",
        "bytes_held": "bytes",
        "peak_alloc_mb": "MB",
        "reuse_ratio": "ratio",
    }
    return {f"{name}.{stat}": units[stat] for stat in stats}


LAYER_METRICS = {
    # curve: the FFT tier
    **_layer("hardy.hardy_part", "calls", "self_s"),
    **_layer("hardy.hardy_embed", "calls", "self_s"),
    **_layer("evolution.toeplitz_step", "calls", "self_s"),
    **_layer("evolution.unitary_evolve", "calls", "self_s"),
    **_layer("lyapunov.lyapunov_curve", "self_s"),
    **_layer("lyapunov.apply_omega", "calls", "self_s"),
    # the factorization, shared by family and transport
    **_layer("lambda_transform.build_model", "self_s", "bytes_held", "peak_alloc_mb"),
    **_layer("lyapunov.build_omega", "self_s"),
    **_layer("lyapunov.build_m_f", "self_s"),
    # family: Z(t), projections and T
    **_layer("lambda_transform.z_matrix", "calls", "self_s", "reuse_ratio"),
    **_layer("ordering.spectral_measure", "self_s", "bytes_held", "peak_alloc_mb"),
    **_layer("ordering.future_projection", "calls", "self_s"),
    **_layer("ordering.assemble_T", "self_s"),
    **_layer("ordering.projection_rank", "calls", "self_s"),
    **_layer("cli.projection-family", "self_s"),
    # transport: vectors through R
    **_layer("lambda_transform.z_evolve", "calls", "self_s"),
    **_layer("lambda_transform.z_adjoint", "calls", "self_s"),
    **_layer("ordering.irreversible_matrix_element", "calls", "self_s"),
    **_layer("spaces.LinOp.apply", "calls", "self_s"),
    **_layer("spaces.LinOp.construct", "calls", "self_s"),
    **_layer("cli.matrix-element", "self_s"),
    # small everywhere; listed so that work moved into them shows
    **_layer("config.load_config", "self_s"),
    **_layer("states.random_guarded_state", "self_s"),
    **_layer("cli.lyapunov-curve", "self_s"),
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def spawn(argv: list[str], env: dict, log_path: Path) -> Outcome:
    """Run one process to completion; wall time from spawn to reap."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            env,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
        )
    finally:
        os.close(fd)
    killer = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        exit_code=os.waitstatus_to_exitcode(status),
    )


def _log_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def child_env(workload: scenarios.Workload) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workload.blas_threads)
    return env


@dataclass(frozen=True)
class Request:
    cfg: dict
    reference: list | None  # rows of reference.json, None if missing
    dir: Path
    config_path: Path


class Requests:
    """The run's request configs, written to a work directory one by one."""

    def __init__(self, workload: scenarios.Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.stream = scenarios.request_stream(workload.name, seed)
        self.reference = scenarios.load_reference()
        self.count = 0

    def next(self) -> Request:
        index = next(self.stream)
        cfg = self.workload.config(index)
        req = Request(
            cfg=cfg,
            reference=scenarios.reference_rows(self.reference, self.workload, index, cfg),
            dir=self.work / f"req{self.count:04d}",
            config_path=self.work / f"req{self.count:04d}" / "config.json",
        )
        self.count += 1
        req.dir.mkdir()
        req.config_path.write_text(scenarios.config_text(cfg), encoding="utf-8")
        return req

    def run(self, env: dict, req: Request, traced: bool):
        """One request; returns its outcome, output dir and problems."""
        tag = "traced" if traced else "plain"
        out_dir = req.dir / tag
        args = self.workload.cli_args(req.config_path, out_dir)
        if traced:
            argv = [str(TRACER), str(req.dir / "spans.json"), *args]
        else:
            argv = ["-c", ENTRY, *args]
        log_path = req.dir / f"{tag}.log"
        outcome = spawn(argv, env, log_path)
        if outcome.exit_code != 0:
            problems = [f"exit status {outcome.exit_code}: {_log_tail(log_path)}"]
        else:
            problems = scenarios.check_outputs(self.workload, req.cfg, req.reference, out_dir)
        return outcome, out_dir, problems


class SpeedProbe:
    """Machine speed around each measured process, from ``probe.py``.

    The shared 2-core machines this was tuned on change speed by up to about
    1.4x for minutes at a time as other tenants load them, and a request's
    wall and CPU time move with it.  The probe's fixed job runs between
    measured processes, never during one.  A process's times are scaled by
    ``PROBE_NOMINAL_S`` over the mean of the probe times just before and
    after it, which states them at the nominal machine speed.

    A request that keeps ``cores`` cores busy is gauged by as many copies of
    the job running at once, one per core, and their mean time.
    """

    def __init__(self, env: dict, cores: int):
        env = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(PROBE)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(cores)
        ]
        self.last = self._time()

    def _time(self) -> float:
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise BenchError("probe.py exited")
            times.append(float(line))
        return sum(times) / len(times)

    def factor(self) -> float:
        """Scale for what ran since the previous probe."""
        now = self._time()
        factor = PROBE_NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        return factor

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
            proc.stdout.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def warm_up(env: dict, work: Path) -> None:
    """One unmeasured start-up-only run.

    It writes the package's bytecode cache and pages in the interpreter and
    libraries, which an installed program has already done.
    """
    setup_times(env, work, repeats=1)


def setup_times(env: dict, work: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of start-up-only invocations (``--version``)."""
    walls = []
    for i in range(repeats):
        log_path = work / f"setup{i}.log"
        outcome = spawn(["-c", ENTRY, "--version"], env, log_path)
        if outcome.exit_code != 0:
            raise BenchError(f"--version exited with {outcome.exit_code}: {_log_tail(log_path)}")
        walls.append(outcome.wall_s)
    return walls


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _report(problems: list[str], what: str) -> None:
    for p in problems[:5]:
        print(f"  {what}: {p}")


def run_plain(workload, seed, seconds, work, env):
    warm_up(env, work)
    speed = SpeedProbe(env, cores=workload.threads * workload.blas_threads)
    try:
        return _measure_plain(workload, seed, seconds, work, env, speed)
    finally:
        speed.close()


def _measure_plain(workload, seed, seconds, work, env, speed):
    setup = setup_times(env, work)
    setup_factor = speed.factor()
    requests = Requests(workload, seed, work)
    measured, failed = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        outcome, _, problems = requests.run(env, requests.next(), False)
        factor = speed.factor()
        measured.append((outcome, factor))
        print(
            f"  request {requests.count - 1}: wall {outcome.wall_s:.3f} s  "
            f"cpu {outcome.cpu_s:.3f} s  rss {outcome.rss_mb:.1f} MB  "
            f"speed {factor:.3f}",
            flush=True,
        )
        if problems:
            failed += 1
            _report(problems, f"request {requests.count - 1}")
        expected_end = time.perf_counter() + _median([o.wall_s for o, _ in measured])
        if len(measured) >= MIN_REQUESTS and expected_end > deadline:
            break
    n = len(measured)
    print(
        f"  unscaled: setup {_median(setup):.4f} s  "
        f"latency {_median([o.wall_s for o, _ in measured]):.4f} s  "
        f"cpu {_median([o.cpu_s for o, _ in measured]):.4f} s  "
        f"(median speed {_median([f for _, f in measured]):.3f})"
    )
    values = {
        "setup_s": (_median(setup) * setup_factor, len(setup)),
        "latency_p50_s": (_median([o.wall_s * f for o, f in measured]), n),
        "cpu_s": (_median([o.cpu_s * f for o, f in measured]), n),
        "peak_rss_mb": (_median([o.rss_mb for o, _ in measured]), n),
    }
    return values, END_TO_END, n, failed


def _same_bytes(a: Path, b: Path, stem: str) -> bool:
    return all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in (f"{stem}.csv", f"{stem}.meta.json")
    )


def run_traced(workload, seed, seconds, work, env):
    warm_up(env, work)
    requests = Requests(workload, seed, work)
    per_request, ratios, uncovered, pair_walls = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        req = requests.next()
        order = (False, True) if requests.count % 2 else (True, False)
        results = {traced: requests.run(env, req, traced) for traced in order}
        attempted += 2
        (plain, plain_dir, plain_problems) = results[False]
        (trace, trace_dir, trace_problems) = results[True]
        print(
            f"  request {requests.count - 1}: untraced {plain.wall_s:.3f} s  "
            f"traced {trace.wall_s:.3f} s",
            flush=True,
        )
        if not (plain_problems or trace_problems) and not _same_bytes(
            plain_dir, trace_dir, workload.stem
        ):
            trace_problems = ["traced outputs differ from untraced outputs"]
        for problems, what in ((plain_problems, "untraced"), (trace_problems, "traced")):
            if problems:
                failed += 1
                _report(problems, f"request {requests.count - 1} {what}")
        spans_path = req.dir / "spans.json"
        if spans_path.is_file():
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            per_request.append(spanstats.layer_stats(spans))
            ratios.append(trace.wall_s / plain.wall_s)
            uncovered.append(spanstats.uncovered_share(spans, trace.wall_s))
        pair_walls.append(plain.wall_s + trace.wall_s)
        if len(pair_walls) >= MIN_REQUESTS and time.perf_counter() + _median(pair_walls) > deadline:
            break
    values = {
        name: (_median([stats.get(name, 0.0) for stats in per_request]), len(per_request))
        for name in LAYER_METRICS
    }
    values["trace.overhead_ratio"] = (_median(ratios), len(ratios))
    values["trace.uncovered_share"] = (_median(uncovered), len(uncovered))
    return values, LAYER_METRICS, attempted, failed


def source_identity() -> dict:
    """Commit (None outside a git checkout) and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        ).stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def provenance(workload: scenarios.Workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **source_identity(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workload.blas_threads,
        "cli_threads": workload.threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "wall_time": "time.perf_counter from spawn to reap of each process",
        "cpu_time": "ru_utime + ru_stime of each request process, from os.wait4",
        "peak_rss": "ru_maxrss of each request process, from os.wait4",
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = scenarios.WORKLOADS[name]
    env = child_env(workload)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        run = run_traced if trace else run_plain
        values, units, attempted, failed = run(workload, seed, seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for metric, (value, n) in values.items():
        print(f"  {metric:48s} {value:14.6g} {units[metric]:6s} n={n}")
    print(f"  {'error_rate':48s} {failed / attempted:14.6g} {'ratio':6s} "
          f"failed={failed} attempted={attempted}")
    print("provenance " + json.dumps(provenance(workload), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*scenarios.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "timearrow" / "cli.py").is_file():
        print(f"perfbench: no timearrow sources under {SRC}", file=sys.stderr)
        return 2
    if not scenarios.REFERENCE_PATH.is_file():
        print("perfbench: reference.json is missing", file=sys.stderr)
        return 2
    names = list(scenarios.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result, sort_keys=True), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
