"""Golden bytes for the whole CLI: every r(., m) command (table and prob,
alias verify), exists, count, roots and selftest, and each size-cap refusal
(exit 4) and bad input (exit 3) the commands report.

Each entry of tests/golden/rmenu/index.json holds one argv, the file with
its stdout, its stderr and its exit code; the test runs each argv through
cli.main in-process and compares all three byte for byte.  Usage errors and
--help are left out: argparse words them differently across Python
versions.  The files were written by this module's __main__ block,

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
    for fmt in ("text", "json"):
        argv = ["exists", "-m", "4", "--perm", "2 1 4 3 5", "--format", fmt]
        yield argv, f"exists-m4.{EXTENSIONS[fmt]}"
    for flags, name in (
        ([], "count-m2.txt"),
        (["--format", "json"], "count-m2.json"),
        (["-v"], "count-m2-v.txt"),
        (["-vv"], "count-m2-v.txt"),  # -vv prints what -v prints
        (["-v", "--format", "json"], "count-m2-v.json"),
    ):
        yield ["count", "-m", "2", "--type", "1^4", *flags], name
    yield ["count", "-m", "12", "--type", "1^36 2^16", "-v"], "count-m12-v.txt"
    yield ["roots", "-m", "2", "--type", "1^6", "--limit", "5"], "roots-m2-limit5.txt"
    # no cube root: a lone 3-cycle needs two more to fuse with
    yield ["roots", "--all", "-m", "3", "--type", "1^3 3^1"], "empty.txt"
    yield ["selftest", "--max-n", "4", "-m", "2,3"], "selftest-n4.txt"
    refusals = (
        # exit 4: a size cap
        ["count", "-m", "2", "--type", "1^1000001"],
        ["selftest", "--max-n", "9"],
        ["table", "-m", "2", "--n", "0..201"],
        ["prob", "-q", "2", "--blocks", "200"],
        ["count", "-m", "25219", "--type", "1^25219"],
        ["prob", "-q", "2", "-r", "10000000"],
        # exit 3: bad input
        ["roots", "-m", "2", "--type", "1^3", "--limit", "0"],
        ["prob", "-q", "2", "--blocks", "0"],
        ["selftest", "--max-n", "-1"],
        ["selftest", "-m", "2,x"],
        ["count", "-m", "0", "--type", "1^2"],
        ["count", "-m", "2", "--type", "1^2 1^3"],
        ["table", "-m", "2", "--n", "0..5", "--truncation-cap", "-1"],
        ["selftest", "--max-n", "2", "--oracle-bound", "-1"],
        # exit 3: bad input behind a cap or a large --type, refused before either
        ["prob", "-q", "4", "--blocks", "100"],
        ["prob", "-q", "2", "-r", "0", "--blocks", "300"],
        ["count", "-m", "0", "--type", "1^1000001"],
        ["roots", "-m", "0", "--type", "1^1000000"],
    )
    for argv in refusals:  # nothing reaches stdout
        yield argv, "empty.txt"


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
