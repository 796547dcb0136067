"""The README's library quick start runs as written and its comments hold."""

import re
from pathlib import Path

from timearrow import projection_rank

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    code = _quick_start()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    n_half, k = map(int, re.search(r"rank (\d+) − (\d+)", code).groups())
    assert namespace["grid"].n_half() == n_half
    assert projection_rank(namespace["p_future"]) == n_half - k
