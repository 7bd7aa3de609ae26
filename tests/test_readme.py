"""The README's examples print what their comments say."""

import re
import shlex
from pathlib import Path

import pytest

from toricsing import catalog
from toricsing.cli import run

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str = "") -> list[str]:
    """The lines of the first `lang` code block under the heading `section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def _commands_with_results() -> list[tuple[str, str]]:
    """Each `toricsing …` line of "Command line" whose next line is a
    `# result = …` comment, with that result; an aside after two spaces,
    such as "  (multiplicity 4, group 3)", is not part of it."""
    lines = _block("Command line", "sh")
    pairs = []
    for line, comment in zip(lines, lines[1:]):
        m = re.fullmatch(r"# (result = .*?)(?:  \(.*\))?", comment)
        if line.startswith("toricsing ") and m:
            pairs.append((line, m[1]))
    return pairs


COMMANDS = _commands_with_results()


def test_the_readme_has_command_examples():
    assert len(COMMANDS) == 3


@pytest.mark.parametrize("line, result", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_prints_its_result(line, result, capsys):
    status = run(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert status == 0
    assert out.splitlines()[0] == result


def test_readme_library_sketch_prints_its_comments(capsys):
    lines = _block("Library sketch", "python")
    expected = [line[2:] for line in lines if line.startswith("# ")]
    exec(compile("\n".join(lines), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 3


def test_readme_model_file_is_weighted_p123():
    # its `radial 1 2 3` line is the column of the divisor classes
    text = "\n".join(_block("Model files")) + "\n"
    assert "radial 1 2 3" in text.splitlines()
    assert catalog.parse_model(text) == catalog.weighted(1, 2, 3)
