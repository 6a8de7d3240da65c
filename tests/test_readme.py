"""The README's code runs against the package as it is."""
from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under a '## heading' of the README."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_quick_start_runs(capsys):
    namespace: dict = {}
    exec(compile(_python_block("Library quick start"), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert printed and all(math.isfinite(float(word)) for word in printed)
    assert namespace["res"].converged
    assert math.isfinite(namespace["lle_true"])
