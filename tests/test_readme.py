"""The README quick tour runs as written, and its command lines use only
flags that the CLI offers."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["e_1e_2 - e_3", "15", "48"]


def test_readme_command_flags_exist():
    from click.testing import CliRunner

    from humbert.cli import main

    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.strip()]
    assert {words[1] for words in lines} == set(main.commands)
    for words in lines:
        assert words[0] == "humbert"
        result = CliRunner().invoke(main, [words[1], "--help"])
        assert result.exit_code == 0, words[1]
        offered = set(re.findall(r"(?<![\w-])--[\w-]+", result.output))
        documented = set(re.findall(r"(?<![\w-])--[\w-]+", " ".join(words)))
        assert documented and documented <= offered, (words[1],
                                                      documented - offered)
