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
field by field) or an off-lattice time under the reject policy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
import tempfile
import warnings
import zlib
from pathlib import Path

import click
import numpy as np

from . import __version__
from ._config import ConfigError, load_config
from .evolution import (
    OffLatticeTimeError,
    OffLatticeWarning,
    _column_chunks,
    kernel_witness,
    lattice_index,
)
from .hardy import hardy_embed, hardy_part, rational_hardy
from .lambda_transform import _assemble, _z_block, build_model
from .lyapunov import lyapunov_curve
from .ordering import irreversible_matrix_element, spectral_measure
from .selftest import refinement_series, run_all
from .spaces import (
    GridSpec, LinOp, Space, _column_norms, identity_op, make_grid, norm, restrict
)
from .states import random_guarded_state


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


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


def _csv_lines(header, rows):
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(str(cell) for cell in row) + "\n"


def _write_outputs(out_dir, stem, header, rows, cfg, command, diagnostics=None):
    """Write ``rows`` (any iterable, consumed once) as the CSV, then the meta."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / f"{stem}.csv", _csv_lines(header, rows))
    meta = {"command": command, "config": cfg, "version": __version__}
    if diagnostics is not None:
        meta["diagnostics"] = diagnostics
    _atomic_write(
        out / f"{stem}.meta.json",
        [json.dumps(meta, sort_keys=True, indent=2) + "\n"],
    )
    return out / f"{stem}.csv"


def _cache_key() -> str:
    """The package and numpy versions and a CRC-32 of the package's sources."""
    crc = 0
    for source in sorted(Path(__file__).parent.glob("*.py")):
        crc = zlib.crc32(source.read_bytes(), crc)
    return f"timearrow {__version__} numpy {np.__version__} sources {crc:08x}"


def _cached_model(grid: GridSpec):
    """``build_model(grid)``, its ``v`` and ``sigma`` loaded from the file of its
    size if that holds this build's key and finite float64 arrays of their
    shapes, else built and saved; prints which.  Never changes the exit code."""
    h = grid.n_half() // 2
    try:
        key = _cache_key()
        cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        path = Path(cache, "timearrow", f"model-{grid.n_sigma}.npz")
    except (OSError, RuntimeError) as exc:  # unreadable sources, or no home
        click.echo(f"model: built (not cached: {exc})")
        return build_model(grid)
    stored = ()
    with contextlib.suppress(Exception):  # whatever the file holds costs a rebuild
        with np.load(path, allow_pickle=False) as f:
            if f["key"].item() == key:
                stored = f["v"], f["sigma"]
    if stored and all(a.dtype == np.float64 and a.shape == shape
                      and np.isfinite(a).all()
                      for a, shape in zip(stored, ((h, h), (2 * h,)))):
        click.echo(f"model: loaded {path}")
        return _assemble(grid, *stored)
    model = build_model(grid)
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        with _atomic_file(path) as fh:
            np.savez(fh, key=np.array(key), v=model.v, sigma=model.sigma)
        click.echo(f"model: built, saved {path}")
    except OSError as exc:
        click.echo(f"model: built (not cached: {exc})")
    return model


def _scenario_grid(cfg) -> GridSpec:
    g = cfg["grid"]
    return make_grid(g["n_sigma"], g["sigma_max"], g["k_dim"])


def _dense_grid(cfg) -> GridSpec:
    g = cfg["grid"]
    return make_grid(2 * cfg["dense"]["n_dense"], g["sigma_max"], g["k_dim"])


def _build_state(grid: GridSpec, cfg):
    """HALF_LINE_POS initial state from the config's state section."""
    kind = cfg["state"]["kind"]
    params = cfg["state"]["parameters"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OffLatticeWarning)
        if kind == "witness":
            mu = complex(params["mu"][0], params["mu"][1])
            try:
                f = kernel_witness(grid, mu, params["t0"], snap=True)
            except ValueError as exc:  # t0 rounds to index 0 or has none
                raise ConfigError([f"state.parameters.t0: {exc}"]) from None
            return restrict(hardy_embed(f))
        if kind == "rational":
            poles = [(complex(p[0], p[1]), int(p[2])) for p in params["poles"]]
            f = hardy_part(rational_hardy(grid, poles))
            return restrict(hardy_embed(f))
    rng = np.random.default_rng(cfg["state"]["seed"])
    try:
        return random_guarded_state(grid, rng, n_terms=params["n_terms"])
    except ValueError as exc:  # sigma_max below 40, or bins wider than packets
        raise ConfigError([f"grid.sigma_max: {exc}"]) from None


def _lattice_times(grid: GridSpec, cfg) -> np.ndarray:
    """Config time grid as lattice indices, snapped or strictly validated."""
    t = cfg["times"]
    requested = np.linspace(0.0, t["t_max"], t["n_steps"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OffLatticeWarning)
        try:
            return lattice_index(grid, requested, snap=t["snap_times"])
        except OffLatticeTimeError as exc:
            if t["snap_times"]:
                raise
            raise OffLatticeTimeError(
                f"times[{exc.index}] = {requested[exc.index]} is off the dual "
                f"lattice (delta_tau = {grid.delta_tau}) and times.snap_times is false"
            ) from None


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
            cfg = load_config(config_path, click.get_current_context().command.name)
            if seed is not None:
                cfg["state"]["seed"] = seed
            fn(cfg, out_dir, **kwargs)
        except ConfigError as exc:
            for problem in exc.problems:
                click.echo(f"config error: {problem}", err=True)
            sys.exit(2)
        except OffLatticeTimeError as exc:
            click.echo(f"config error: {exc}", err=True)
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
    _atomic_write(
        out / "selftest.json", [json.dumps(report, sort_keys=True, indent=2) + "\n"]
    )
    click.echo(f"report: {out / 'selftest.json'}")
    if not report["all_passed"]:
        sys.exit(1)


@main.command("lyapunov-curve")
@_common_options
@_scenario
def lyapunov_curve_cmd(cfg, out_dir):
    """Expectation curve of the configured state along its trajectory."""
    grid = _scenario_grid(cfg)
    psi = _build_state(grid, cfg)
    report = lyapunov_curve(psi, _lattice_times(grid, cfg) * grid.delta_tau)
    rows = (
        (_fmt(t), _fmt(e), _fmt(nv), "algebraic")
        for t, e, nv in zip(report.times, report.expectations, report.norms)
    )
    path = _write_outputs(
        out_dir,
        "lyapunov_curve",
        ("t", "expectation", "norm", "tolerance_class"),
        rows,
        cfg,
        "lyapunov-curve",
        diagnostics={
            "guard_band_leakage": float(report.guard_band_leakage),
            "max_monotonicity_violation": float(report.max_monotonicity_violation),
        },
    )
    click.echo(f"wrote: {path}")
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
    psi = _build_state(dense, cfg)  # before the model: a bad state exits 2 first
    t_b = _lattice_times(grid, cfg) * grid.delta_tau
    tnorms = np.sqrt(lyapunov_curve(_build_state(grid, cfg), t_b).expectations)
    model = _cached_model(dense)
    l_psi = model.lam.apply(psi).amplitudes
    ks = _lattice_times(dense, cfg)
    znorms = np.empty(ks.size)
    for cols in _column_chunks(ks.size):
        znorms[cols] = _column_norms(dense, _z_block(model, l_psi, ks[cols]))
    rows = (
        (_fmt(tb), _fmt(tn), _fmt(td), _fmt(zn), "algebraic")
        for tb, tn, td, zn in zip(t_b, tnorms, ks * dense.delta_tau, znorms)
    )
    path = _write_outputs(
        out_dir,
        "semigroup_norms",
        ("t_toeplitz", "toeplitz_norm", "t_z", "z_norm", "tolerance_class"),
        rows,
        cfg,
        "semigroup-norms",
    )
    click.echo(f"wrote: {path}")
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
    ks = np.sort(_lattice_times(dense, cfg))
    # distinct indices; np.unique would import numpy.ma on its first call
    ks = ks[np.append(True, ks[1:] != ks[:-1])]
    if ks.size < 2:
        raise ConfigError([
            f"times.t_max: {cfg['times']['t_max']} snaps every time to 0 "
            f"(delta_tau = {dense.delta_tau}); a projection family needs two "
            "distinct lattice times"
        ])
    model = _cached_model(dense)
    times = ks * dense.delta_tau
    family = spectral_measure(model, times)
    lowest, highest = family.ordering_extremes()
    data = family.residuals()
    rows = (
        (_fmt(t), str(rank), _fmt(idem), _fmt(nest), _fmt(comp), "algebraic")
        for t, (rank, idem, nest, comp) in zip(times, data)
    )
    path = _write_outputs(
        out_dir,
        "projection_family",
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
        "projection-family",
        diagnostics={
            "ordering_spectrum_min": lowest,
            "ordering_spectrum_max": highest,
            "truncation_time": float(times[-1]),
        },
    )
    click.echo(f"wrote: {path}")
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
    psi = _build_state(dense, cfg)
    model = _cached_model(dense)
    half = Space.HALF_LINE_POS
    energy = dense.sigma_pos() / dense.sigma_max  # per bin: every fibre alike
    observables = {
        "identity": identity_op(dense, half),
        "energy": LinOp(dense, half, half, energy, hermitian=True),
    }
    ks = _lattice_times(dense, cfg)
    past = int(np.count_nonzero(ks >= dense.n_half()))  # Z(t) = 0 from there on
    times = ks * dense.delta_tau
    rev, irr, diffs = irreversible_matrix_element(
        model, psi, psi, list(observables.values()), times
    )
    rows = (
        (name, *map(_fmt, (t, r.real, r.imag, z.real, z.imag, d)), "algebraic")
        for name, *columns in zip(observables, rev, irr, diffs)
        for t, r, z, d in zip(times, *columns)
    )
    path = _write_outputs(
        out_dir,
        "matrix_element",
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
        "matrix-element",
        diagnostics={"times_past_half_window": past},
    )
    click.echo(f"wrote: {path}")
    tol = cfg["tolerances"]["algebraic"]
    scale = norm(psi) ** 2  # both observables have unit operator norm
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
    series = refinement_series()
    rows = [
        (str(n), _fmt(ell), _fmt(simple), _fmt(double), _fmt(ratio), "continuum")
        for n, ell, simple, double, ratio in series
    ]
    path = _write_outputs(
        out_dir,
        "convergence",
        (
            "n_sigma",
            "sigma_max",
            "simple_pole_residual",
            "double_pole_residual",
            "witness_ratio_t1",
            "tolerance_class",
        ),
        rows,
        cfg,
        "convergence",
    )
    click.echo(f"wrote: {path}")
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
