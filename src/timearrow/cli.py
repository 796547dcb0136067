"""Config-driven experiment runner.

One JSON config file (see :data:`~timearrow._config.DEFAULT_CONFIG`) fully
determines an experiment: grid, dense-tier size, time grid, initial state,
and tolerances.  Every command writes its results atomically (temp file +
rename) into ``--out``: scenario commands emit a CSV (17-significant-digit
scientific notation, one ``tolerance_class`` column) plus a ``.meta.json``
sidecar echoing the config and library version, and ``selftest`` emits a
single JSON report.  Outputs carry no timestamps or machine identifiers, so
reruns with the same config are byte-identical.

Exit codes: 0 success, 1 tolerance violation, 2 config error (reported
field by field), an off-lattice time under the reject policy among them.
Every command reads its state and its times before it builds or loads the
model, so a config error costs no factorization.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import gc
import json
import os
import sys
import tempfile
import zlib
from pathlib import Path

import click
import numpy as np

from . import (
    __version__, _config, evolution, hardy, lambda_transform, lyapunov, ordering, spaces,
    states,
)

# At exit, move every object to gc's permanent generation: shutdown then skips
# collecting the start-up heap, and cyclic garbage alive then is not finalized.
atexit.register(gc.freeze)


@contextlib.contextmanager
def _atomic_file(path: Path):
    """A binary temp file beside ``path``, renamed to it after the body; on any
    failure the temp file is removed and ``path`` is left untouched."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, chunks) -> None:
    """Stream ``chunks`` (strings) into ``path`` as UTF-8, atomically."""
    with _atomic_file(path) as fh:
        fh.writelines(chunk.encode() for chunk in chunks)


def _write_json(path: Path, data) -> None:
    _atomic_write(path, [json.dumps(data, sort_keys=True, indent=2) + "\n"])


def _csv_lines(header, rows):
    """The header, then each row: a float cell as ``%.16e`` (17 significant
    digits, so it reads back to the same float), any other cell as ``str``.
    (``%`` formats a numpy float as fast as a Python one; an f-string does not.)"""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join("%.16e" % c if isinstance(c, float) else str(c) for c in row) + "\n"


def _write_outputs(out_dir, header, rows, cfg, diagnostics=None):
    """Write ``rows`` (any iterable, consumed once) as ``<stem>.csv``, then
    ``<stem>.meta.json``, and print the CSV's path; the stem is the running
    command's name with ``-`` as ``_``."""
    command = click.get_current_context().command.name
    stem = command.replace("-", "_")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / f"{stem}.csv", _csv_lines(header, rows))
    meta = {"command": command, "config": cfg, "version": __version__}
    if diagnostics:
        meta["diagnostics"] = diagnostics
    _write_json(out / f"{stem}.meta.json", meta)
    click.echo(f"wrote: {out / stem}.csv")


def _cache_key() -> str:
    """The package and numpy versions and a CRC-32 of the package's sources."""
    crc = 0
    for source in sorted(Path(__file__).parent.glob("*.py")):
        crc = zlib.crc32(source.read_bytes(), crc)
    return f"timearrow {__version__} numpy {np.__version__} sources {crc:08x}"


def _cached_model(grid: spaces.GridSpec):
    """``build_model(grid)``, its ``v`` and ``sigma`` loaded from the file of its
    size if that holds one record of this build's key and finite float64 arrays
    of their shapes, else built and saved; prints which.  Never changes the
    exit code."""
    h = grid.n_half() // 2
    try:
        key = _cache_key().encode()
        cache = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(cache):  # unset, empty or relative: not a valid base
            cache = Path.home() / ".cache"
        path = Path(cache, "timearrow", f"model-{grid.n_sigma}.npy")
    except (OSError, RuntimeError) as exc:  # unreadable sources, or no home
        click.echo(f"model: built (not cached: {exc})")
        return lambda_transform.build_model(grid)
    # the key last, so that v and sigma start 8-byte aligned
    record = np.dtype([("v", "<f8", (h, h)), ("sigma", "<f8", (2 * h,)),
                       ("key", f"S{len(key)}")])
    stored = None
    with contextlib.suppress(Exception):  # whatever the file holds costs a rebuild
        f = np.load(path, allow_pickle=False)
        if (f.dtype == record and f.shape == () and f["key"] == key
                and np.isfinite(f["v"]).all() and np.isfinite(f["sigma"]).all()):
            stored = f
    if stored is not None:
        click.echo(f"model: loaded {path}")
        return lambda_transform.IrreversibleModel(grid, stored["v"], stored["sigma"])
    model = lambda_transform.build_model(grid)
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        with _atomic_file(path) as fh:
            np.save(fh, np.array((model.v, model.sigma, key), record))
        click.echo(f"model: built, saved {path}")
    except OSError as exc:
        click.echo(f"model: built (not cached: {exc})")
    return model


def _scenario_grid(cfg) -> spaces.GridSpec:
    g = cfg["grid"]
    return spaces.make_grid(g["n_sigma"], g["sigma_max"], g["k_dim"])


def _dense_grid(cfg) -> spaces.GridSpec:
    g = cfg["grid"]
    return spaces.make_grid(2 * cfg["dense"]["n_dense"], g["sigma_max"], g["k_dim"])


def _build_state(grid: spaces.GridSpec, cfg):
    """HALF_LINE_POS initial state from the config's state section, and its meta
    diagnostics; a witness or rational state is its scalar Hardy profile
    through omega*, on fibre 0, and a witness notes its requested and its
    lattice ``t0``.  A random state imports numpy.random, so a command reads
    the layer functions it calls before this, and this reads ``states``' first
    (the read executes their modules): a layer compiled afterwards raises the
    peak RSS."""
    kind = cfg["state"]["kind"]
    params = cfg["state"]["parameters"]
    if kind == "random":
        build = states.random_guarded_state  # executes its layer first
        rng = np.random.default_rng(cfg["state"]["seed"])
        try:
            return build(grid, rng, n_terms=params["n_terms"]), {}
        except ValueError as exc:  # sigma_max below 40, or bins wider than packets
            raise _config.ConfigError([f"grid.sigma_max: {exc}"]) from None
    scalar = spaces.make_grid(grid.n_sigma, grid.sigma_max, 1)
    notes = {}
    if kind == "witness":
        t0 = params["t0"]
        try:  # an OffLatticeTimeError, if t0 has no index, is a ValueError
            k0 = evolution._snap(grid, t0)[0]
            if k0 < 1:
                raise ValueError(f"t0 = {t0} rounds to lattice index 0 (delta_tau = "
                                 f"{grid.delta_tau}); a witness needs index 1 or more")
        except ValueError as exc:
            raise _config.ConfigError([f"state.parameters.t0: {exc}"]) from None
        notes = {"t0_requested": float(t0), "t0_used": k0 * grid.delta_tau}
        mu = complex(params["mu"][0], params["mu"][1])
        h = evolution.kernel_witness(scalar, mu, notes["t0_used"])
    else:
        poles = [(complex(p[0], p[1]), int(p[2])) for p in params["poles"]]
        h = hardy.hardy_part(hardy.rational_hardy(scalar, poles))
    a = lyapunov._omega_block(grid, h.fibered(), adjoint=True)
    a = np.pad(a, [(0, 0), (0, grid.k_dim - 1)])
    return spaces.StateVector(grid, spaces.Space.HALF_LINE_POS, a.reshape(-1)), notes


def _lattice_times(grid: spaces.GridSpec, cfg) -> tuple[np.ndarray, dict]:
    """Config time grid as lattice indices, and the meta diagnostics of the snap:
    how many times moved, and the largest move.  A time without an index, or
    one off the lattice while ``times.snap_times`` is false, is a config error."""
    t = cfg["times"]
    requested = np.linspace(0.0, t["t_max"], t["n_steps"])
    try:
        ks, moved = evolution._snap(grid, requested)
    except evolution.OffLatticeTimeError as exc:
        raise _config.ConfigError([
            f"times.t_max: times[{exc.index}] = {requested[exc.index]} has no "
            f"dual-lattice index (delta_tau = {grid.delta_tau})"
        ]) from None
    if moved.any() and not t["snap_times"]:
        i = int(np.flatnonzero(moved)[0])
        raise _config.ConfigError([
            f"times.snap_times: times[{i}] = {requested[i]} is off the dual lattice "
            f"(delta_tau = {grid.delta_tau}) and times.snap_times is false"
        ])
    gap = np.abs(requested - ks * grid.delta_tau)[moved]
    return ks, {"times_snapped": gap.size, "times_max_snap": gap.max(initial=0.0)}


def _violation(message: str):
    click.echo(f"tolerance violation: {message}", err=True)
    sys.exit(1)


def _common_options(fn):
    fn = click.option(
        "--seed",
        type=click.IntRange(0, 2**64 - 1),
        default=None,
        help="Override state.seed from the config.",
    )(fn)
    fn = click.option(
        "--threads",
        type=click.IntRange(0),
        default=0,
        show_default=True,
        help="Accepted for compatibility; has no effect (per-time work is serial).",
    )(fn)
    fn = click.option(
        "--out",
        "out_dir",
        type=click.Path(file_okay=False),
        default=".",
        show_default=True,
        help="Directory for output files.",
    )(fn)
    fn = click.option(
        "--config",
        "config_path",
        type=click.Path(dir_okay=False),
        default=None,
        help="JSON config file (omit for built-in defaults).",
    )(fn)
    return fn


def _scenario(fn):
    """Wrap a command body with config loading and the exit-code contract."""

    def wrapper(config_path, out_dir, threads, seed, **kwargs):
        try:
            command = click.get_current_context().command.name
            cfg = _config.load_config(config_path, command)
            if seed is not None:
                cfg["state"]["seed"] = seed
            fn(cfg, out_dir, **kwargs)
        except _config.ConfigError as exc:
            for problem in exc.problems:
                click.echo(f"config error: {problem}", err=True)
            sys.exit(2)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(__version__, prog_name="timearrow")
def main():
    """Experiment runner for the discrete irreversibility model."""


@main.command("selftest")
@_common_options
@_scenario
def selftest_cmd(cfg, out_dir):
    """Run the full acceptance-check battery and write selftest.json."""
    n_dense = cfg["dense"]["n_dense"]
    if n_dense < 512:
        click.echo(
            "note: dense tiers below n_dense = 512 cannot resolve the "
            "narrowest guarded packets; algebraic-tier failures there "
            "measure discretization leakage, not broken algebra"
        )
    from .selftest import run_all  # loaded only when the battery runs

    results = run_all(
        n_dense=n_dense,
        progress=lambda r: click.echo(r.summary()),
    )
    report = {
        "version": __version__,
        "config": cfg,
        "all_passed": all(r.passed for r in results),
        # no timings in the written report: reruns must be byte-identical
        "results": [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "elapsed"}
            for r in results
        ],
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "selftest.json", report)
    click.echo(f"report: {out / 'selftest.json'}")
    if not report["all_passed"]:
        sys.exit(1)


@main.command("lyapunov-curve")
@_common_options
@_scenario
def lyapunov_curve_cmd(cfg, out_dir):
    """Expectation curve of the configured state along its trajectory."""
    grid = _scenario_grid(cfg)
    curve = lyapunov.lyapunov_curve  # executes its layers; see _build_state
    psi, state_notes = _build_state(grid, cfg)
    ks, snap_notes = _lattice_times(grid, cfg)
    report = curve(psi, ks * grid.delta_tau)
    rows = (
        (t, e, nv, "algebraic")
        for t, e, nv in zip(report.times, report.expectations, report.norms)
    )
    _write_outputs(
        out_dir,
        ("t", "expectation", "norm", "tolerance_class"),
        rows,
        cfg,
        diagnostics={
            **state_notes,
            **snap_notes,
            "guard_band_leakage": float(report.guard_band_leakage),
            "max_monotonicity_violation": float(report.max_monotonicity_violation),
        },
    )
    if report.max_monotonicity_violation > cfg["tolerances"]["algebraic"]:
        _violation(
            f"expectation curve increases by "
            f"{report.max_monotonicity_violation:.3e}"
        )


@main.command("semigroup-norms")
@_common_options
@_scenario
def semigroup_norms_cmd(cfg, out_dir):
    """Norm decay under the compressed semigroup and its transported form."""
    grid = _scenario_grid(cfg)
    dense = _dense_grid(cfg)
    # executes their layers; see _build_state
    curve, z_block = lyapunov.lyapunov_curve, lambda_transform._z_block
    psi, state_notes = _build_state(dense, cfg)
    ks, snap_notes = _lattice_times(grid, cfg)  # both grids share delta_tau, so ks too
    t_b = ks * grid.delta_tau
    tnorms = np.sqrt(curve(_build_state(grid, cfg)[0], t_b).expectations)
    model = _cached_model(dense)
    l_psi = model.lam.apply(psi).amplitudes
    znorms = np.empty(ks.size)
    for cols in evolution._column_chunks(ks.size):
        znorms[cols] = spaces._column_norms(dense, z_block(model, l_psi, ks[cols]))
    rows = (
        (*columns, "algebraic")
        for columns in zip(t_b, tnorms, ks * dense.delta_tau, znorms)
    )
    _write_outputs(
        out_dir,
        ("t_toeplitz", "toeplitz_norm", "t_z", "z_norm", "tolerance_class"),
        rows,
        cfg,
        diagnostics={**state_notes, **snap_notes},
    )
    tol = cfg["tolerances"]["algebraic"]
    if np.any(np.diff(tnorms) > tol):
        _violation("compressed-semigroup norms increase along the time grid")
    if np.any(np.diff(znorms) > tol):
        _violation("transported-semigroup norms increase along the time grid")


@main.command("projection-family")
@_common_options
@_scenario
def projection_family_cmd(cfg, out_dir):
    """Past-projection family residuals, ranks, and the ordering operator."""
    dense = _dense_grid(cfg)
    ks, snap_notes = _lattice_times(dense, cfg)  # nondecreasing, as the times
    # distinct indices; np.unique would import numpy.ma on its first call
    ks = ks[np.append(True, ks[1:] != ks[:-1])]
    if ks.size < 2:
        raise _config.ConfigError([
            f"times.t_max: {cfg['times']['t_max']} snaps every time to 0 "
            f"(delta_tau = {dense.delta_tau}); a projection family needs two "
            "distinct lattice times"
        ])
    model = _cached_model(dense)
    times = ks * dense.delta_tau
    family = ordering.spectral_measure(model, times)
    lowest, highest = family.ordering_extremes()
    data = family.residuals()
    rows = ((t, *residuals, "algebraic") for t, residuals in zip(times, data))
    _write_outputs(
        out_dir,
        (
            "t",
            "rank",
            "idempotency_residual",
            "nesting_residual",
            "complement_residual",
            "tolerance_class",
        ),
        rows,
        cfg,
        diagnostics={
            "ordering_spectrum_min": lowest,
            "ordering_spectrum_max": highest,
            "truncation_time": float(times[-1]),
            **snap_notes,
        },
    )
    tol = cfg["tolerances"]["algebraic"]
    ranks = [d[0] for d in data]
    worst = max(max(d[1:]) for d in data)
    if worst > tol:
        _violation(f"projection-family residual {worst:.3e} exceeds {tol:g}")
    if any(np.diff(ranks) < 0):
        _violation("projection ranks decrease along the family")


@main.command("matrix-element")
@_common_options
@_scenario
def matrix_element_cmd(cfg, out_dir):
    """Observable matrix elements in the reversible and irreversible pictures."""
    dense = _dense_grid(cfg)
    element = ordering.irreversible_matrix_element  # executes its layers; see _build_state
    psi, state_notes = _build_state(dense, cfg)
    ks, snap_notes = _lattice_times(dense, cfg)
    model = _cached_model(dense)
    half = spaces.Space.HALF_LINE_POS
    energy = dense.sigma_pos() / dense.sigma_max  # per bin: every fibre alike
    observables = {
        "identity": spaces.identity_op(dense, half),
        "energy": spaces.LinOp(dense, half, half, energy, hermitian=True),
    }
    past = int(np.count_nonzero(ks >= dense.n_half()))  # Z(t) = 0 from there on
    times = ks * dense.delta_tau
    rev, irr, diffs = element(model, psi, psi, list(observables.values()), times)
    rows = (
        (name, t, r.real, r.imag, z.real, z.imag, d, "algebraic")
        for name, *columns in zip(observables, rev, irr, diffs)
        for t, r, z, d in zip(times, *columns)
    )
    _write_outputs(
        out_dir,
        (
            "observable",
            "t",
            "reversible_re",
            "reversible_im",
            "irreversible_re",
            "irreversible_im",
            "abs_difference",
            "tolerance_class",
        ),
        rows,
        cfg,
        diagnostics={**state_notes, **snap_notes,
                     "times_past_half_window": past},
    )
    tol = cfg["tolerances"]["algebraic"]
    scale = spaces.norm(psi) ** 2  # both observables have unit operator norm
    worst = float(diffs.max())
    if worst > tol * scale:
        cause = (
            f"{past} of the times reach the half window t = {dense.t_window / 2:.6g}, "
            "past which Z(t) is zero while the unitary evolution recurs"
            if past else
            "a state with guard-band leakage, e.g. a witness restricted to "
            "the half-line, sets a leakage floor here"
        )
        _violation(f"picture mismatch {worst:.3e} exceeds {tol:g} x state scale "
                   f"({cause})")


@main.command("convergence")
@_common_options
@_scenario
def convergence_cmd(cfg, out_dir):
    """Continuum-tier residuals across the standard refinement ladder."""
    from .selftest import refinement_series

    series = refinement_series()
    _write_outputs(
        out_dir,
        (
            "n_sigma",
            "sigma_max",
            "simple_pole_residual",
            "double_pole_residual",
            "witness_ratio_t1",
            "tolerance_class",
        ),
        [(*row, "continuum") for row in series],
        cfg,
    )
    tol = cfg["tolerances"]["continuum"]
    for label, column in (("simple-pole", 2), ("double-pole", 3), ("witness-ratio", 4)):
        values = [row[column] for row in series]
        if any(np.diff(values) >= 0):
            _violation(f"{label} residuals do not decrease under refinement")
        if values[-1] > tol:
            _violation(
                f"{label} residual {values[-1]:.3e} exceeds {tol:g} on the "
                "finest grid"
            )
