"""README stays in step with the code: its CLI lines run, its printed
``--trace`` sample is the CLI's output byte for byte, and its library
sketch gives the results its comments state."""

import re
import shlex
from pathlib import Path

import pytest

from ppbinom import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(heading):
    """The text under a ``## heading`` up to the next one."""
    return re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)[1]


def fenced(text, info):
    """The bodies of the fenced blocks in text whose info string is info."""
    blocks, body = [], None
    for line in text.splitlines(keepends=True):
        if body is None and line.startswith("```"):
            body, kind = [], line[3:].strip()
        elif body is not None and line.strip() == "```":
            if kind == info:
                blocks.append("".join(body))
            body = None
        elif body is not None:
            body.append(line)
    return blocks


CLI_LINES = fenced(section("CLI"), "sh")[0].splitlines()


def argv(line):
    words = shlex.split(line)
    start = 3 if words[:3] == ["python", "-m", "ppbinom"] else 1
    assert words[start - 1] == "ppbinom", line
    return words[start:]


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_lines_run(capsys, line):
    assert cli.main(argv(line)) == 0, capsys.readouterr().err


def test_trace_sample_is_the_cli_output(capsys):
    (line,) = [line for line in CLI_LINES if "--trace" in line and line.startswith("ppbinom ")]
    (sample,) = fenced(section("CLI"), "")
    assert cli.main(argv(line)) == 0
    assert capsys.readouterr().out == sample


def test_library_sketch_results():
    (sketch,) = fenced(section("Library sketch"), "python")
    scope, shown = {}, []
    for line in sketch.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, scope)
            continue
        want = repr(eval(code, scope))
        comment = comment.strip()
        # the comment opens with the value, then ends or explains it
        assert comment == want or comment.startswith((want + " ", want + ",", want + ":")), line
        shown.append(eval(want))
    assert {"(1)(2)(2)(1)(1)(21)(20)(2)", 2, 18} <= set(shown)
