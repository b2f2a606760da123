"""The python code blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    for number, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {number}", "exec"), {"__name__": "readme"})
