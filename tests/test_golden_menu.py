"""Golden bytes for every r(., m) command: table and prob (alias verify).

Each entry of tests/golden/rmenu/index.json holds one argv, the file with
its stdout, its stderr and its exit code; the test runs each argv through
cli.main in-process and compares all three byte for byte.  The files were
written by this module's __main__ block,

    PYTHONPATH=src python tests/test_golden_menu.py

which rewrites them from the current code: run it only for an output change
that is meant, and say so where the change is recorded.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from permroots.cli import main

GOLDEN = Path(__file__).parent / "golden" / "rmenu"
EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}


def _menu():
    """(argv, stdout file name) for each command, in a fixed order."""
    for m in (2, 3, 6, 12, 60):
        for fmt in ("text", "csv", "json"):
            argv = ["table", "-m", str(m), "--n", "0..20", "--format", fmt]
            yield argv, f"table-m{m}-n0..20.{EXTENSIONS[fmt]}"
    yield ["table", "-m", "720720", "--n", "0..40"], "table-m720720-n0..40.txt"
    for q, r, blocks in ((2, 2, 10), (3, 2, 6), (5, 1, 3), (7, 1, 2)):
        for fmt in ("text", "json"):
            name = f"prob-q{q}-r{r}-b{blocks}.{EXTENSIONS[fmt]}"
            for command in ("prob", "verify"):  # one alias, one output
                argv = [command, "-q", str(q), "-r", str(r), "--blocks", str(blocks)]
                yield [*argv, "--format", fmt], name


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _entries():
    return json.loads((GOLDEN / "index.json").read_text())


def test_the_index_lists_the_whole_menu():
    assert [(entry["argv"], entry["stdout"]) for entry in _entries()] == [
        (argv, name) for argv, name in _menu()
    ]


@pytest.mark.parametrize("argv", [argv for argv, _ in _menu()], ids=" ".join)
def test_command_matches_its_golden_bytes(argv):
    (entry,) = (entry for entry in _entries() if entry["argv"] == argv)
    expected = (GOLDEN / entry["stdout"]).read_bytes().decode()
    assert _run(argv) == (entry["exit"], expected, entry["stderr"])


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    index = []
    for argv, name in _menu():
        code, out, err = _run(argv)
        (GOLDEN / name).write_bytes(out.encode())
        index.append({"argv": argv, "stdout": name, "stderr": err, "exit": code})
    lines = ",\n".join(json.dumps(entry) for entry in index)  # one command a line
    (GOLDEN / "index.json").write_text(f"[\n{lines}\n]\n")
