"""Every command of the README's command-line walkthrough runs and exits 0.

Takes each ``thuelex`` line of the first code block under "## Command line"
in ``README.md`` and runs it through ``cli.main`` in a temporary directory,
in order, so a line that reads a file an earlier line writes finds it.  A
walkthrough line that names a missing file or a wrong graph therefore fails
here, as ``test_bench_commands.py`` does for the benchmark's command lines.
"""

import shlex
from pathlib import Path

from thuelex import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _walkthrough() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("thuelex ")]


def test_walkthrough_is_found():
    argvs = _walkthrough()
    assert len(argvs) >= 10
    assert {argv[0] for argv in argvs} == {"gen", "color", "verify", "solve", "seq"}


def test_every_walkthrough_line_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in _walkthrough():
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 0, f"thuelex {shlex.join(argv)} exited {code}: {err}"
