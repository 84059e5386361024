"""CLI output pinned to fixed bytes.

Each argv below runs in process through `cli.main`; its exit code and the
SHA-256 digests of its stdout and stderr must equal the digests recorded in
`tests/data/cli_golden.json`.  The corpus covers every subcommand in text,
CSV and JSON, `--dump-matrices`, the README examples and usage errors.  No
run of correct code fails a verification, so none exits 1;
`tests/test_cli.py` reaches that exit with a stand-in oracle.

To record the file again after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from gradedorbits import cli

from test_readme import README_EXAMPLES

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
FORMATS = ("text", "csv", "json")


def _in_formats(*argvs):
    return [(*argv, "--format", fmt) for argv in argvs for fmt in FORMATS]


_ORBITS = _in_formats(
    ("orbits", "--case", "AI", "--m", "2", "--dims", "2,1"),
    ("orbits", "--case", "AI", "--m", "3", "--dims", "2,1,1"),
    ("orbits", "--case", "AI", "--m", "3", "--dims", "0,0,0"),
    ("orbits", "--case", "AII", "--m0", "3", "--dims", "1,2,1"),
    ("orbits", "--case", "CII", "--m", "2", "--dims", "2,2"),
    ("orbits", "--case", "DII", "--m", "4", "--dims", "1,2,2,1"),
)
_COUNT = _in_formats(
    ("count", "--family", "A", "--l", "2", "--n", "5"),
    ("count", "--family", "C", "--l", "1", "--n", "6"),
    ("count", "--family", "D", "--l", "2", "--n", "4"),
    ("count", "--family", "dist-A", "--l", "1", "--n", "6"),
    ("count", "--family", "dist-C", "--l", "2", "--n", "4"),
    ("count", "--family", "dist-D", "--l", "1", "--n", "5"),
    ("count", "--family", "dist-AI", "--m", "3", "--a", "2", "--n", "5"),
    ("count", "--family", "dist-AI", "--m", "4", "--a", "6", "--n", "3"),
    ("count", "--family", "C", "--l", "2", "--n", "0"),
)
_SHEAVES = _in_formats(
    ("sheaves", "--case", "AI", "--m", "2", "--dims", "2,2", "--a", "2"),
    ("sheaves", "--case", "AI", "--m", "3", "--dims", "1,1,1", "--a", "1"),
    ("sheaves", "--case", "AI", "--m", "3", "--dims", "2,2,2", "--a", "3"),
    ("sheaves", "--case", "AI", "--m", "2", "--dims", "2,1", "--a", "3"),
    ("sheaves", "--case", "AII", "--m0", "3", "--dims", "1,0,1"),
    ("sheaves", "--case", "CII", "--m", "4", "--dims", "1,2,1,2"),
    ("sheaves", "--case", "DII", "--m", "2", "--dims", "2,2"),
)
_VERIFY = _in_formats(
    ("verify", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "2"),
    ("verify", "--case", "AI", "--m", "3", "--dims", "2,2,2", "--a", "2"),
    ("verify", "--case", "AII", "--m0", "3", "--dims", "1,0,1"),
    ("verify", "--case", "DII", "--m", "4", "--dims", "1,2,2,1"),
)
_CUSPIDAL = _in_formats(
    ("cuspidal", "--case", "AI", "--m", "2", "--dims", "2,2"),
    ("cuspidal", "--case", "AI", "--m", "3", "--dims", "2,2,2"),
    ("cuspidal", "--case", "AI", "--m", "4", "--dims", "2,2,2,2"),
    ("cuspidal", "--case", "AI", "--m", "3", "--dims", "2,1,1"),
    ("cuspidal", "--case", "AI", "--m", "3", "--dims", "3,1,2"),
    ("cuspidal", "--case", "AI", "--m", "2", "--dims", "0,0"),
)
_DISTINGUISHED = _in_formats(
    ("distinguished", "--case", "AI", "--m", "3", "--N", "4", "--a", "2"),
    ("distinguished", "--case", "AI", "--m", "3", "--dims", "2,1,2", "--oracle", "--seed", "7",
     "--trials", "5"),
    ("distinguished", "--case", "AII", "--m0", "3", "--N", "4"),
    ("distinguished", "--case", "CII", "--m", "2", "--dims", "2,2"),
    ("distinguished", "--case", "DII", "--m", "4", "--N", "4"),
) + [
    ("distinguished", "--case", "AI", "--m", "2", "--dims", "1,1", "--dump-matrices",
     "--format", "json"),
    ("distinguished", "--case", "AI", "--m", "3", "--dims", "1,2,2", "--dump-matrices",
     "--oracle", "--format", "json"),
    # the oracle is exact, so one trial and any seed give the default's verdicts
    ("distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle", "--trials", "1",
     "--seed", "4"),
    ("distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle", "--trials", "1",
     "--seed", "4", "--format", "json"),
]
USAGE_ERRORS = [
    ("orbits", "--case", "AI", "--dims", "1,1"),
    ("orbits", "--case", "AII", "--m0", "3", "--dims", "1,2,3"),
    ("orbits", "--case", "AI", "--m", "2", "--dims", "1,x"),
    ("count", "--family", "A", "--n", "3"),
    ("count", "--family", "dist-AI", "--m", "2", "--a", "2", "--n", "3"),
    ("count", "--family", "C", "--l", "1", "--n", "-1"),
    ("count", "--family", "B", "--l", "1", "--n", "3"),
    ("sheaves", "--case", "AI", "--m", "2", "--dims", "1,1"),
    ("verify", "--case", "AI", "--m", "2", "--dims", "1,1"),
    ("verify", "--case", "CII", "--m", "3", "--dims", "1,1,1"),
    ("cuspidal", "--case", "CII", "--m", "2", "--dims", "2,2"),
    ("distinguished", "--case", "AI", "--m", "2"),
    ("distinguished", "--case", "AI", "--m", "2", "--N", "2", "--oracle", "--seed", "-5"),
    ("distinguished", "--case", "AI", "--m", "2", "--dims", "1,1", "--dump-matrices"),
    ("frobnicate",),
]
GOLDEN_ARGV = (
    _ORBITS + _COUNT + _SHEAVES + _VERIFY + _CUSPIDAL + _DISTINGUISHED
    + README_EXAMPLES + USAGE_ERRORS
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_in_process(argv):
    """[exit code, stdout SHA-256, stderr SHA-256] of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


def _key(argv) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_is_the_recorded_one(golden):
    assert len(GOLDEN_ARGV) == len(set(GOLDEN_ARGV))
    assert sorted(golden) == sorted(map(_key, GOLDEN_ARGV))
    assert {code for code, _, _ in golden.values()} == {0, 2}


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=_key)
def test_cli_bytes_match_the_recorded_digests(golden, argv):
    assert run_in_process(argv) == golden[_key(argv)]


if __name__ == "__main__":
    records = {_key(argv): run_in_process(argv) for argv in GOLDEN_ARGV}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} runs to {GOLDEN}", file=sys.stderr)
