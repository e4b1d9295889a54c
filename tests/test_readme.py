"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})
    # two prints: the exact factorization's error, then CD's error and quality
    assert len(capsys.readouterr().out.splitlines()) == 2
