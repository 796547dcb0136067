"""Run one CLI request in this process, with a timing span around each layer.

Usage: ``python3 perfbench/tracer.py SPANS_JSON CLI_ARG...``

Imports ``timearrow.cli``, replaces every module-level binding of the layer
functions listed in ``TARGETS`` (and ``LinOp.apply`` / ``LinOp.__post_init__``
and the command callbacks) with a wrapper that records a span, runs
``timearrow.cli:main`` on the given arguments, writes the spans to
SPANS_JSON and exits with the CLI's exit status.  The program's source is
not modified.

A span is ``[id, parent, name, start, end, attrs]`` with ``perf_counter``
times.  Spans opened in a thread with no open span of its own (the CLI's
``_pmap`` workers) take the running command span as parent.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

# (module under timearrow, function name).  The span is named
# "<module>.<function>", with a leading underscore dropped from the module.
TARGETS = [
    ("hardy", "hardy_part"),
    ("hardy", "hardy_embed"),
    ("evolution", "toeplitz_step"),
    ("evolution", "unitary_evolve"),
    ("lyapunov", "lyapunov_curve"),
    ("lyapunov", "apply_omega"),
    ("lyapunov", "build_omega"),
    ("lyapunov", "build_m_f"),
    ("lambda_transform", "build_model"),
    ("lambda_transform", "z_matrix"),
    ("lambda_transform", "z_evolve"),
    ("lambda_transform", "z_adjoint"),
    ("ordering", "spectral_measure"),
    ("ordering", "future_projection"),
    ("ordering", "assemble_T"),
    ("ordering", "projection_rank"),
    ("ordering", "irreversible_matrix_element"),
    ("_config", "load_config"),
    ("states", "random_guarded_state"),
]

# Spans whose result size is recorded and whose allocations are traced.
HELD_AND_ALLOC = {"lambda_transform.build_model", "ordering.spectral_measure"}


def nbytes_of(x) -> int:
    """Array bytes reachable from a result through dataclass fields and tuples."""
    nbytes = getattr(x, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(x, (tuple, list)):
        return sum(nbytes_of(v) for v in x)
    if isinstance(x, dict):
        return sum(nbytes_of(v) for v in x.values())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return sum(nbytes_of(getattr(x, f.name)) for f in dataclasses.fields(x))
    return 0


def z_matrix_key(model, t, snap=False) -> str:
    """Which cached Z(t) a call asks for: the model and the lattice index."""
    return f"{id(model)}:{round(t / model.grid.delta_tau)}"


class Recorder:
    """Spans of one request, kept in memory until the request ends."""

    def __init__(self):
        self.spans = []
        self.anchor = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: dict | None = None, anchor: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self.anchor
        sid = next(self._ids)
        stack.append(sid)
        if anchor:
            self.anchor = sid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            if anchor:
                self.anchor = None
            self.spans.append([sid, parent, name, start, end, {} if attrs is None else attrs])

    def wrap(self, fn, name: str, anchor: bool = False):
        key = z_matrix_key if name == "lambda_transform.z_matrix" else None
        traced_alloc = name in HELD_AND_ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"key": key(*args, **kwargs)} if key else {}
            if traced_alloc:
                tracemalloc.start()
            try:
                with self.span(name, attrs, anchor):
                    result = fn(*args, **kwargs)
            finally:
                if traced_alloc:
                    attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if traced_alloc:
                attrs["bytes_held"] = nbytes_of(result)
            return result

        return traced


def install(rec: Recorder) -> None:
    """Wrap the layer functions wherever a timearrow module has bound them."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("timearrow")]
    for module_name, attr in TARGETS:
        original = getattr(sys.modules[f"timearrow.{module_name}"], attr)
        wrapped = rec.wrap(original, f"{module_name.lstrip('_')}.{attr}")
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    linop = sys.modules["timearrow.spaces"].LinOp
    linop.apply = rec.wrap(linop.apply, "spaces.LinOp.apply")
    linop.__post_init__ = rec.wrap(linop.__post_init__, "spaces.LinOp.construct")
    for name, command in sys.modules["timearrow.cli"].main.commands.items():
        command.callback = rec.wrap(command.callback, f"cli.{name}", anchor=True)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    with rec.span("process.import"):
        import timearrow.cli
    install(rec)
    code = 0
    with rec.span("cli.main"):
        try:
            timearrow.cli.main.main(args=cli_args, prog_name="timearrow")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
