"""README's shell transcripts, replayed through ``cli.main``.

Each ``$ gogkit ...`` line of README.md's ``sh`` blocks runs in a fresh
directory, and its output must equal the lines shown under it, up to the next
blank line.  A ``#`` comment is dropped and ``| head -N`` keeps the first N
lines.  ``verify all`` is left out: tests/test_acceptance.py runs its checks.
"""
import shlex
from pathlib import Path

import pytest

from gogkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _transcripts():
    """(command, expected output lines) per ``$ gogkit`` line."""
    out, in_sh, current = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif in_sh and line.startswith("$ gogkit "):
            current = (line[2:], [])
            out.append(current)
        elif in_sh and current is not None and line:
            current[1].append(line)
        else:
            current = None
    return [(command, lines) for command, lines in out if "verify all" not in command]


TRANSCRIPTS = _transcripts()


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 7


@pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript(capsys, tmp_path, monkeypatch, command, expected):
    argv = shlex.split(command, comments=True)
    head = None
    if "|" in argv:
        pipe = argv.index("|")
        assert argv[pipe + 1] == "head" and argv[pipe + 2].startswith("-")
        argv, head = argv[:pipe], int(argv[pipe + 2][1:])
    assert argv[0] == "gogkit"
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv[1:])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[:head] == expected
