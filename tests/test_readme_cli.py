"""The CLI examples under README `## Command line` print what they show.

Each `$ srt ...` line that is followed by an output line runs in-process
through srt.cli.dispatch, and its stdout is compared with that line. An output
ending in `...}` is a prefix of the real one, and an output starting with
`{...` is a suffix of it.
"""
import re
import shlex
from pathlib import Path

import pytest

from srt.cli import EXIT_OK

import records

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    text = README.read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    return [
        (line[2:], shown)
        for line, shown in zip(lines, lines[1:] + [""])
        if line.startswith("$ srt ") and shown and not shown.startswith("$ ")
    ]


EXAMPLES = _examples()


def test_the_readme_shows_outputs():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, shown", EXAMPLES)
def test_readme_example_prints_what_it_shows(command, shown):
    code, out, _ = records.capture(shlex.split(command)[1:])
    assert code == EXIT_OK
    printed = out.rstrip("\n")
    if shown.endswith("...}"):
        assert printed.startswith(shown[: -len("...}")])
    elif shown.startswith("{..."):
        assert printed.endswith(shown[len("{..."):].lstrip())
    else:
        assert printed == shown
