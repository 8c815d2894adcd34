"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from plam.cli import main
from plam.equiv import Witness
from plam.prob import ONE, ZERO
from plam.trees import Equal

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `heading` line."""
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in _block("## CLI", "sh").splitlines() if line.startswith("plam ")]


def test_readme_lists_cli_examples():
    assert len(CLI_LINES) >= 10


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_zero(tmp_path, capsys, line):
    problem = tmp_path / "problem.json"
    problem.write_text(_block("An assignment problem file", "json"), encoding="utf-8")
    argv = [str(problem) if a == "problem.json" else a for a in shlex.split(line)[1:]]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_snippet_holds():
    scope = {}
    exec(_block("## Library", "python"), scope)
    res = scope["res"]
    assert (res.mass, res.deficit, res.exact) == (ONE, ZERO, True)
    assert isinstance(scope["verdict"], Equal)
    assert isinstance(scope["witness"], Witness)
