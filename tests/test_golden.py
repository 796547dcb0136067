"""The command line's outputs against the golden files of ``tests/golden/``.

``make_golden.py`` recorded them and regenerates them; each case runs again
here the same way, in subprocesses on one BLAS thread from an empty model
cache, so each case's first dense command builds the model and the others
load it.

Headers, text and integer cells, JSON keys and every non-float JSON value
must match exactly.  Floats must match byte for byte when this environment
has the recorded fingerprint (numpy, its BLAS build, the machine and the
SIMD features numpy found), because then the same float64 operations run in
the same order.  Elsewhere another build may reassociate sums, contract
multiply-adds or pick other SIMD kernels, which moves each float by rounding
only, and each float ``x`` must satisfy ``|x - golden| <= BOUND * max(1,
|golden|)`` with ``BOUND = tolerances.algebraic = 1e-8`` of the default
config.  Why that bound: every command checks its results at their row's
``tolerance_class``.  Algebraic rows are identities that the command holds
to ``tolerances.algebraic`` relative to the unit state scale, so a build
whose rounding moved one of them by more would already fail that check, and
continuum rows are residuals that rounding moves just as little, checked at
``tolerances.continuum`` = 0.05.  So ``BOUND`` is the tighter of the two
classes for every float, CSV and JSON alike: never looser than a row's
class.  The one rounding change a single machine can show, two BLAS threads
instead of one, moves a single float here by 6e-16 at most (criterion 2's
``eig_min`` in ``selftest.json``), seven orders of magnitude inside it.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import make_golden
from timearrow import DEFAULT_CONFIG

GOLDEN = make_golden.GOLDEN
BOUND = DEFAULT_CONFIG["tolerances"]["algebraic"]
EXACT = json.loads((GOLDEN / "fingerprint.json").read_text()) == make_golden.fingerprint()

_INT = re.compile(r"-?\d+\Z")


def _same_cell(a: str, b: str, exact: bool) -> bool:
    if exact or _INT.match(b):
        return a == b
    try:
        x, y = float(a), float(b)
    except ValueError:  # a text cell
        return a == b
    return abs(x - y) <= BOUND * max(1.0, abs(y))


def _compare_csv(fresh: str, golden: str, exact: bool) -> list[str]:
    new, old = fresh.splitlines(), golden.splitlines()
    if new[:1] != old[:1]:
        return [f"header {new[:1]} != {old[:1]}"]
    if len(new) != len(old):
        return [f"{len(new) - 1} rows, golden {len(old) - 1}"]
    header = old[0].split(",")
    problems = []
    for i, (a_line, b_line) in enumerate(zip(new[1:], old[1:]), 1):
        a_cells, b_cells = a_line.split(","), b_line.split(",")
        if len(a_cells) != len(b_cells):
            problems.append(f"row {i}: {len(a_cells)} cells, golden {len(b_cells)}")
            continue
        problems.extend(f"row {i} {col}: {a} != {b}"
                        for col, a, b in zip(header, a_cells, b_cells)
                        if not _same_cell(a, b, exact))
    return problems


def _compare_json(a, b, exact: bool, where: str = "") -> list[str]:
    if isinstance(b, dict) and isinstance(a, dict):
        if sorted(a) != sorted(b):
            return [f"{where or '/'}: keys {sorted(a)} != {sorted(b)}"]
        return [p for k in b for p in _compare_json(a[k], b[k], exact, f"{where}/{k}")]
    if isinstance(b, list) and isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} items, golden {len(b)}"]
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _compare_json(x, y, exact, f"{where}/{i}")]
    if type(a) is float and type(b) is float and not exact:
        same = abs(a - b) <= BOUND * max(1.0, abs(b))
    else:  # json writes a float's repr, so equal floats are equal bytes
        same = type(a) is type(b) and a == b
    return [] if same else [f"{where}: {a!r} != {b!r}"]


def compare(name: str, fresh: str, golden: str, exact: bool) -> list[str]:
    """Differences of output file ``name`` from its golden copy; floats by
    text when ``exact``, else within ``BOUND``."""
    if name.endswith(".csv"):
        return _compare_csv(fresh, golden, exact)
    return _compare_json(json.loads(fresh), json.loads(golden), exact)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    stdout = {case: make_golden.run_case(case, out / case) for case in make_golden.CASES}
    return out, stdout


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_outputs_match_golden(fresh, case):
    out, stdout = fresh
    golden = sorted((GOLDEN / case).iterdir())
    assert sorted(p.name for p in (out / case).iterdir()) == [p.name for p in golden]
    problems = {}
    for path in golden:
        new = out / case / path.name
        found = compare(path.name, new.read_text(), path.read_text(), EXACT)
        if EXACT and not found and new.read_bytes() != path.read_bytes():
            found = ["same values, different bytes"]
        if found:
            problems[path.name] = found[:5]
    assert not problems, problems


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_stdout_names_outputs_and_cache(fresh, case):
    # one wrote: line per scenario, its stem the command name; the first
    # dense command of a case builds the model and the others load it
    out, stdout = fresh
    models = []
    for command, text in stdout[case].items():
        lines = text.splitlines()
        if command == "selftest":
            assert f"report: {out / case / 'selftest.json'}" in lines
            continue
        stem = command.replace("-", "_")
        wrote = [line for line in lines if line.startswith("wrote:")]
        assert wrote == [f"wrote: {out / case / stem}.csv"], text
        models += [line.split(" ", 2)[1] for line in lines if line.startswith("model:")]
    assert models == ["built,"] + ["loaded"] * (len(models) - 1)


def test_comparator_rejects_one_ulp_in_any_cell_and_a_renamed_key():
    for path in sorted(GOLDEN.glob("*/*.csv")):
        text = path.read_text()
        lines = text.split("\n")
        for i, line in enumerate(lines[1:-1], 1):
            cells = line.split(",")
            for j, cell in enumerate(cells):
                if _INT.match(cell):
                    changed = str(int(cell) + 1)
                else:
                    try:
                        x = float(cell)
                    except ValueError:
                        continue
                    changed = f"{np.nextafter(x, np.inf):.16e}"
                    beyond = f"{x + 2 * BOUND * max(1.0, abs(x)):.16e}"
                    assert _same_cell(changed, cell, exact=False), (path, i, j)
                    assert not _same_cell(beyond, cell, exact=False), (path, i, j)
                mutated = "\n".join(
                    [*lines[:i], ",".join([*cells[:j], changed, *cells[j + 1:]]),
                     *lines[i + 1:]])
                assert len(compare(path.name, mutated, text, exact=True)) == 1, (path, i, j)
    for path in sorted(GOLDEN.glob("*/*.meta.json")):
        text = path.read_text()
        keys = list(re.finditer(r'"(\w+)":', text))
        assert keys
        for key in keys:
            mutated = f"{text[:key.start(1)]}{key[1]}_renamed{text[key.end(1):]}"
            for exact in (True, False):
                assert compare(path.name, mutated, text, exact), (path, key[1])
