"""The README's library examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)


def test_library_use_examples_run(capsys):
    blocks = _library_use_blocks()
    assert len(blocks) >= 2 and "run_simulation(config)" in blocks[0]
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the landscape example's comment states what it prints
    assert "False (0.0, 100.0, 0.0)\n" in capsys.readouterr().out
