"""The README's examples run as written: every line of its "Command line"
block exits 0, and its Python block gives the values its comments state."""

import shlex
from pathlib import Path

import pytest

from alphaindex.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(after: str, language: str) -> list[str]:
    """The lines of the first ``language`` code block after ``after``."""
    start = README.index(f"```{language}\n", README.index(after)) + len(language) + 4
    return README[start:README.index("```", start)].splitlines()


COMMANDS = [shlex.split(line, comments=True) for line in _block("## Command line", "sh")]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[1:3]) for argv in COMMANDS])
def test_readme_command_exits_0(capsys, monkeypatch, tmp_path, argv):
    (tmp_path / "graphs.g6").write_text("Cr\nDqK\nFGEzo\n")
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "alphaindex"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


def test_readme_python_block_gives_its_commented_values():
    namespace: dict = {}
    checked = 0
    for line in _block("## Library tour", "python"):
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        stated = comment.split()[0]
        if stated.endswith("..."):
            assert repr(value).startswith(stated[:-3])
        else:
            assert value == int(stated)
        checked += 1
    assert checked == 2
