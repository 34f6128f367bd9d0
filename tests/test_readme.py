"""The README's Python examples run as written: every `python` block, in
order, in one namespace, since a later block may use an earlier block's
names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {number}", "exec"),
             namespace)
    assert capsys.readouterr().out
