"""The README quick tour runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["e_1e_2 - e_3", "15", "48"]
