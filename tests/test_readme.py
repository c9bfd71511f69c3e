"""README's library quick start runs as written, under the suite's warning
filters, so a public name the docs still use cannot be removed unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library quick start'"
    exec(compile(block.group(1), f"{README.name}: Library quick start", "exec"), {})
