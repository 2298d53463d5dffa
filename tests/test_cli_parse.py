"""The table parse of plain CLI spellings against argparse.

cli._parse_plain returns a SimpleNamespace of the attributes that
cli._parser().parse_args sets, or None, after which main hands the argv to
argparse; so every argv it accepts must parse to the same attributes under
argparse, and every argv argparse refuses (exit 2) or answers with help must
be left to argparse.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from permroots import cli

COMMANDS = ["exists", "count", "roots", "table", "prob", "verify", "selftest", "bogus"]
OPTIONS = [
    "-m",
    "--perm",
    "--type",
    "--format",
    "-v",
    "--verbose",
    "--limit",
    "--all",
    "--n",
    "--truncation-cap",
    "-q",
    "-r",
    "--blocks",
    "--max-n",
    "--oracle-bound",
]
# spellings argparse reads and the table parse leaves to it
OTHER_SPELLINGS = ["--lim", "--format=json", "-m2", "-vv", "-h", "--help", "--"]
VALUES = ["2", "-1", "", "x", "1^2", " 7", "+3", "1_0", "٣", "json", "csv"]
TOKENS = COMMANDS + OPTIONS + OTHER_SPELLINGS + VALUES

FLAGS = {"-v", "--verbose", "--all"}
QUERY = ["-m", "--perm", "--type"]
# each command's own options, and those it requires, as the README documents
# them: drawing mostly these makes argv that argparse accepts common enough to
# compare Namespaces, not only refusals
OWN = {
    "exists": QUERY + ["--format"],
    "count": QUERY + ["--format", "-v", "--verbose"],
    "roots": QUERY + ["--limit", "--all"],
    "table": ["-m", "--n", "--format", "--truncation-cap"],
    "prob": ["-q", "-r", "--blocks", "--format", "--truncation-cap"],
    "verify": ["-q", "-r", "--blocks", "--format", "--truncation-cap"],
    "selftest": ["--max-n", "-m", "--oracle-bound"],
}
REQUIRED = {"exists": ["-m", "--perm"], "count": ["-m", "--type"], "roots": ["-m", "--type"]}
REQUIRED.update(table=["-m", "--n"], prob=["-q"], verify=["-q"])


def chunk(option, value):
    return (option,) if option in FLAGS else (option, value)


@st.composite
def argvs(draw):
    """A command or any token, then a shuffle of its required options (or
    not), its own options, any option with a value, and any single tokens."""
    first = draw(st.one_of(st.sampled_from(COMMANDS), st.sampled_from(TOKENS)))
    value = st.sampled_from(VALUES)
    own = st.builds(chunk, st.sampled_from(OWN.get(first, OPTIONS)), value)
    any_pair = st.tuples(st.sampled_from(OPTIONS + OTHER_SPELLINGS), value)
    any_token = st.tuples(st.sampled_from(TOKENS))
    chunks = draw(st.lists(st.one_of(own, own, any_pair, any_token), max_size=3))  # own: half
    if draw(st.integers(0, 3)):  # three times in four
        chunks += [(option, draw(value)) for option in REQUIRED.get(first, [])]
    return [first, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


GOLDEN_INDEX = Path(__file__).parent / "golden" / "rmenu" / "index.json"


def argparse_outcome(argv):
    """(Namespace, None) where argparse accepts argv, else (None, exit code)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().parse_args(argv), None
        except SystemExit as exc:
            return None, exc.code


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["verify", "-q", "٣", "-r", "+3", "--blocks", "1_0", "--format", "json"])
@example(["roots", "-m", " 7", "--perm", "", "--all"])
@example(["count", "-m", "2", "--type", "1^2", "--format", "x"])  # not a choice
@example(["roots", "-m", "2", "--perm", "--all"])  # --perm without its value
@example(["count", "-m", "2", "--type", "1^2", "--perm", "x"])  # both of the one-of group
@example(["count", "-m", "-1", "--type", "1^2"])
@example(["count", "-m", "2", "--type", "1^2", "--", "-v"])
def test_the_table_parse_agrees_with_argparse_or_defers(argv):
    fast = cli._parse_plain(argv)
    namespace, code = argparse_outcome(argv)
    if code is not None:
        assert fast is None, (argv, code)
    elif fast is not None:  # a SimpleNamespace never equals an argparse.Namespace
        assert vars(fast) == vars(namespace), argv


def test_every_golden_command_that_succeeds_takes_the_table_parse():
    entries = json.loads(GOLDEN_INDEX.read_text())
    succeeding = [entry["argv"] for entry in entries if entry["exit"] == 0]
    bundled = ["count", "-m", "2", "--type", "1^4", "-vv"]  # -v twice, in argparse's spelling
    assert bundled in succeeding and cli._parse_plain(bundled) is None
    for argv in succeeding:
        if argv != bundled:
            assert vars(cli._parse_plain(argv)) == vars(cli._parser().parse_args(argv)), argv
