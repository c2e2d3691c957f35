"""The README's examples run: the library quick start and every command line example."""

import re
import shlex
from pathlib import Path

import pytest

from coinwalk import cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def section(title):
    """The text of the README section headed '## title', up to the next '## ' heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def command_lines():
    """The argv of each `coinwalk ...` and `python -m coinwalk ...` line in the first
    indented block of the Command line section, its trailing comment dropped."""
    block = re.search(r"^((?:    .*\n)+)", section("Command line"), re.M).group(1)
    argvs = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["coinwalk"]:
            argvs.append(words[1:])
        elif words[:3] == ["python", "-m", "coinwalk"]:
            argvs.append(words[3:])
    return argvs


def test_library_quick_start_runs():
    code = re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_every_command_line_example_is_read():
    argvs = command_lines()
    assert len(argvs) == 10
    assert ["dist", "--n", "7"] in argvs and ["verify", "--max-n", "12"] in argvs


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_exits_0(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
