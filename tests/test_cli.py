import argparse
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gradedorbits import cli
from gradedorbits.diagrams import MINUS, PLUS, canonicalize, empty_diagram, iter_diagrams
from gradedorbits.orbits import GradingSpec, enumerate_strata
from gradedorbits.sheaves import catalog

from conftest import PKG_ROOT
from test_readme import README_EXAMPLES


def test_orbits_ai_text(run_cli):
    result = run_cli("orbits", "--case", "AI", "--m", "2", "--dims", "1,1")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].split() == ["diagram", "d_lambda", "distinguished", "orbit_dim"]
    assert len(lines) == 4


def test_orbits_aii(run_cli):
    result = run_cli("orbits", "--case", "AII", "--m0", "3", "--dims", "1,0,1")
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) == 2


@pytest.mark.parametrize("dims", ["1,1,1", "1,2,3"])
@pytest.mark.parametrize("command", ["orbits", "distinguished"])
def test_orbits_invalid_dims_exit_2(run_cli, command, dims):
    result = run_cli(command, "--case", "AII", "--m0", "3", "--dims", dims)
    assert result.returncode == 2
    assert "error" in result.stderr


def test_orbits_missing_modulus_exit_2(run_cli):
    result = run_cli("orbits", "--case", "AI", "--dims", "1,1")
    assert result.returncode == 2
    # the box counts are required too
    result = run_cli("orbits", "--case", "AI", "--m", "2")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: this command requires --dims\n"


def test_count_family_a_csv(run_cli):
    result = run_cli("count", "--family", "A", "--l", "1", "--n", "4", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,gf_coeff,weight_sum,enum_count,match"
    assert lines[1] == "0,1,1,1,true"
    assert lines[4] == "3,10,10,10,true"
    assert all(line.endswith("true") for line in lines[1:])


def test_count_zero_degree(run_cli):
    result = run_cli("count", "--family", "C", "--l", "2", "--n", "0", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout.strip().splitlines()[1] == "0,1,1,1,true"


def test_count_requires_family_params(run_cli):
    assert run_cli("count", "--family", "A", "--n", "3").returncode == 2
    assert run_cli("count", "--family", "dist-AI", "--n", "3").returncode == 2


def test_count_dist_ai_json(run_cli):
    result = run_cli(
        "count", "--family", "dist-AI", "--m", "2", "--a", "1", "--n", "3",
        "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert [row["gf_coeff"] for row in payload["rows"]] == [1, 2, 4, 8]
    assert all(row["match"] for row in payload["rows"])


def test_verify_pass(run_cli):
    result = run_cli("verify", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "1")
    assert result.returncode == 0
    assert "result=PASS" in result.stdout
    result = run_cli("verify", "--case", "CII", "--m", "2", "--dims", "2,2")
    assert result.returncode == 0
    assert "result=PASS" in result.stdout


def test_verify_json(run_cli):
    result = run_cli(
        "verify", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "2",
        "--format", "json",
    )
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["orbital_complexes"] == 2
    assert payload["catalog_labels"] == 2


def test_sheaves_json_schema(run_cli):
    result = run_cli(
        "sheaves", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "1",
        "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["labels"]) == 3
    label = payload["labels"][0]
    assert label["type"] == "AI"
    assert set(label["stratum"]) == {"a", "l", "mu", "d_check", "braid_rank"}
    assert set(label["psi"]) == {"mod", "idx", "order"}
    assert set(label["flags"]) == {"nilp", "full", "cuspidal_conj"}
    assert label["stratum"]["mu"]["sign"] == "-"


def test_json_form_rejects_other_objects():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({"x": {1}}, default=cli._json_form)


def test_sheaves_aii_trivial(run_cli):
    result = run_cli("sheaves", "--case", "AII", "--m0", "3", "--dims", "0,0,0")
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) == 2  # header plus one label


def test_sheaves_requires_a_for_ai(run_cli):
    assert run_cli("sheaves", "--case", "AI", "--m", "2", "--dims", "1,1").returncode == 2


@pytest.mark.parametrize(
    "argv,extra",
    [
        (("sheaves", "--case", "CII", "--m", "2", "--dims", "2,2"), ("--a", "1")),
        (("sheaves", "--case", "AII", "--m0", "3", "--dims", "1,0,1"), ("--a", "2")),
        (("verify", "--case", "DII", "--m", "2", "--dims", "2,2"), ("--a", "1")),
        (("count", "--family", "dist-AI", "--m", "2", "--a", "1", "--n", "3"), ("--l", "1")),
        (("count", "--family", "A", "--l", "1", "--n", "3"), ("--m", "3")),
        (("count", "--family", "dist-C", "--l", "1", "--n", "3"), ("--a", "1")),
    ],
)
def test_ignored_parameters_are_rejected(capsys, argv, extra):
    """A parameter the command would ignore for this case or family is a
    usage error; without it the same command succeeds."""
    assert cli.main([*argv, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and extra[0] in err
    assert cli.main(list(argv)) == 0


# A case's modulus flag with a valid box-count vector, the other case's flag
# and the error it gives.
STRAY_MODULUS = [
    (("--case", "AI", "--m", "2"), "1,1", ("--m0", "5"), "error: case AI takes --m, not --m0\n"),
    (("--case", "CII", "--m", "2"), "2,2", ("--m0", "3"), "error: case CII takes --m, not --m0\n"),
    (("--case", "AII", "--m0", "3"), "1,0,1", ("--m", "7"), "error: case AII takes --m0, not --m\n"),
]


@pytest.mark.parametrize("command", ["orbits", "sheaves", "verify", "cuspidal", "distinguished"])
@pytest.mark.parametrize("grading, dims, stray, message", STRAY_MODULUS)
def test_the_other_cases_modulus_flag_is_rejected(capsys, command, grading, dims, stray, message):
    """--m0 for a case that takes --m, or --m for AII, is a usage error, with
    --dims and, on `distinguished`, the one command that takes it, with
    --N; without it the same command runs (cuspidal only for case AI)."""
    order = ("--a", "1") if grading[1] == "AI" and command in ("sheaves", "verify") else ()
    targets = [("--dims", dims)] + ([("--N", "2")] if command == "distinguished" else [])
    for target in targets:
        argv = [command, *grading, *target, *order]
        assert cli.main([*argv, *stray]) == 2
        assert capsys.readouterr() == ("", message)
        if command != "cuspidal" or grading[1] == "AI":
            assert cli.main(argv) == 0
            capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "--case", "AI", "--m", "3", "--dims", "0,0,0", "--a", "3"), 0),
        (("sheaves", "--case", "AII", "--m0", "3", "--dims", "1,0,1", "--a", "2"), 2),
    ],
)
def test_console_script_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    """The `gradedorbits` entry point reads sys.argv and exits with what
    `main` returns for the same arguments."""
    monkeypatch.setattr(sys, "argv", ["gradedorbits", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.console_main()
    script = capsys.readouterr()
    assert exit_info.value.code == code == cli.main(list(argv))
    assert capsys.readouterr() == script


def test_cuspidal_anchor(run_cli):
    result = run_cli("cuspidal", "--case", "AI", "--m", "2", "--dims", "2,1")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 3
    assert all("3_1" in line for line in lines[1:])


def test_cuspidal_large_uniform_grading(run_cli):
    # the order-1 catalog of this grading has about 10^9 labels
    dims = ",".join(["1"] * 30)
    result = run_cli("cuspidal", "--case", "AI", "--m", "30", "--dims", dims, "--format", "json")
    assert result.returncode == 0
    labels = json.loads(result.stdout)["labels"]
    assert len(labels) == 441 and all(lab["flags"]["cuspidal_conj"] for lab in labels)


def test_cuspidal_rejects_type_ii(run_cli):
    assert run_cli("cuspidal", "--case", "AII", "--m0", "3", "--dims", "0,0,0").returncode == 2


def test_distinguished_with_oracle(run_cli):
    result = run_cli(
        "distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle",
        "--seed", "0", "--trials", "20",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].split() == ["diagram", "distinguished", "oracle", "agrees"]
    assert all(line.split()[-1] == "true" for line in lines[1:])


def test_distinguished_needs_one_sweep(run_cli):
    assert run_cli("distinguished", "--case", "AI", "--m", "2").returncode == 2
    assert (
        run_cli(
            "distinguished", "--case", "AI", "--m", "2", "--N", "2", "--dims", "1,1"
        ).returncode
        == 2
    )


def test_distinguished_oracle_restrictions(run_cli):
    assert (
        run_cli(
            "distinguished", "--case", "AII", "--m0", "3", "--N", "2", "--oracle"
        ).returncode
        == 2
    )
    assert (
        run_cli(
            "distinguished", "--case", "AI", "--m", "2", "--N", "2", "--a", "2",
            "--oracle",
        ).returncode
        == 2
    )


@pytest.mark.parametrize(
    "modulus_args",
    [("--case", "AI", "--m", "0"), ("--case", "CII", "--m", "3"), ("--case", "AII", "--m0", "4")],
)
def test_distinguished_sweep_rejects_bad_modulus(run_cli, modulus_args):
    result = run_cli("distinguished", *modulus_args, "--N", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "modulus" in result.stderr


def test_distinguished_rejects_nonpositive_trials(run_cli):
    for trials in ("0", "-3"):
        result = run_cli(
            "distinguished", "--case", "AI", "--m", "2", "--N", "2", "--oracle",
            "--trials", trials,
        )
        assert result.returncode == 2
        assert "--trials" in result.stderr


def test_distinguished_rejects_negative_seed(run_cli):
    # random.Random(-5) draws as random.Random(5), so a negative seed would
    # report a seed it did not use
    result = run_cli(
        "distinguished", "--case", "AI", "--m", "2", "--N", "2", "--oracle", "--seed", "-5",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "--seed" in result.stderr
    assert run_cli(
        "distinguished", "--case", "AI", "--m", "2", "--N", "2", "--oracle", "--seed", "0",
    ).returncode == 0


@pytest.mark.parametrize(
    "argv,extra,flag",
    [
        (("--case", "AII", "--m0", "3", "--N", "4"), ("--a", "5"), "--a"),
        (("--case", "DII", "--m", "2", "--dims", "2,2"), ("--a", "1"), "--a"),
        (("--case", "AI", "--m", "2", "--N", "3"), ("--seed", "4"), "--seed"),
        (("--case", "AI", "--m", "2", "--N", "3"), ("--trials", "5"), "--trials"),
        (("--case", "AI", "--m", "2", "--N", "3", "--a", "2"), ("--seed", "0"), "--seed"),
    ],
)
def test_distinguished_rejects_ignored_parameters(run_cli, argv, extra, flag):
    result = run_cli("distinguished", *argv, *extra)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and flag in result.stderr
    assert run_cli("distinguished", *argv).returncode == 0


def test_oracle_verdicts_do_not_depend_on_seed_or_trials(run_cli):
    argv = ("distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle")
    default = run_cli(*argv)
    assert default.returncode == 0
    for extra in (("--trials", "1", "--seed", "4"), ("--trials", "50", "--seed", "9")):
        result = run_cli(*argv, *extra)
        assert result.returncode == 0, extra
        assert result.stdout == default.stdout, extra


def test_distinguished_exits_1_when_the_oracle_disagrees(monkeypatch, capsys):
    # the exact oracle always agrees, so a wrong one stands in for a fault
    monkeypatch.setattr(cli, "is_distinguished_oracle", lambda lam: False)
    assert cli.main(["distinguished", "--case", "AI", "--m", "2", "--N", "2", "--oracle"]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows and all(row[-2] == "false" for row in rows)
    assert {row[-1] for row in rows} == {"true", "false"}


def test_distinguished_dump_matrices(run_cli):
    result = run_cli(
        "distinguished", "--case", "AI", "--m", "2", "--dims", "1,1",
        "--dump-matrices", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    first = payload["diagrams"][0]
    assert "blocks" in first
    assert all(
        isinstance(entry, str) for block in first["blocks"] for row in block for entry in row
    )
    # dump requires JSON output
    assert (
        run_cli(
            "distinguished", "--case", "AI", "--m", "2", "--dims", "1,1",
            "--dump-matrices",
        ).returncode
        == 2
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("--case", "AII", "--m0", "3", "--dims", "1,2,1"),
        ("--case", "CII", "--m", "2", "--dims", "2,2"),
        ("--case", "DII", "--m", "2", "--N", "4"),
    ],
)
def test_distinguished_dump_matrices_is_for_case_ai_only(run_cli, argv):
    # the blocks are the gl string representative, not a type II one
    result = run_cli("distinguished", *argv, "--dump-matrices", "--format", "json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "--dump-matrices" in result.stderr
    assert run_cli("distinguished", *argv, "--format", "json").returncode == 0


def test_output_file(run_cli, tmp_path):
    target = tmp_path / "out.csv"
    result = run_cli(
        "count", "--family", "A", "--l", "1", "--n", "2", "--format", "csv",
        "--output", str(target),
    )
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text().splitlines()[0] == "n,gf_coeff,weight_sum,enum_count,match"


def test_unwritable_output_exit_2(run_cli, tmp_path):
    result = run_cli(
        "count", "--family", "A", "--l", "1", "--n", "2",
        "--output", str(tmp_path / "missing" / "out.txt"),
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1


def test_too_large_a_modulus_exit_2(run_cli):
    # the walk recurses once per orbit of start labels, 1200 of them here
    result = run_cli("distinguished", "--case", "AI", "--m", "1200", "--N", "1")
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_a_modulus_below_the_recursion_limit_runs(run_cli):
    # The recursion headroom from below: 900 orbits of start labels still
    # fit under Python's default limit (on CPython 3.11, 986 do and 987
    # exit 2).
    result = run_cli("distinguished", "--case", "AI", "--m", "900", "--N", "1")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_closed_stdout_exit_2():
    # The read end is closed before the child starts, so its first write to
    # stdout fails with a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "gradedorbits", "count", "--family", "A",
             "--l", "1", "--n", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("orbits", "--case", "AI", "--m", "2", "--dims", "2,1", "--format", "json"),
        ("count", "--family", "D", "--l", "1", "--n", "3", "--format", "csv"),
        ("sheaves", "--case", "AII", "--m0", "3", "--dims", "1,0,1"),
        ("verify", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "1"),
        ("cuspidal", "--case", "AI", "--m", "2", "--dims", "2,1", "--format", "json"),
        (
            "distinguished", "--case", "AI", "--m", "2", "--N", "3", "--oracle",
            "--seed", "5", "--format", "json",
        ),
    ],
)
def test_repeated_runs_are_byte_identical(run_cli, argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# The README examples, the other formats of the count and oracle examples, a
# failure inside a subcommand and an argparse usage error.
ONE_PROCESS_RUNS = README_EXAMPLES + [
    ("count", "--family", "A", "--l", "1", "--n", "6", "--format", "json"),
    ("distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle", "--seed", "0",
     "--trials", "20", "--format", "json"),
    ("count", "--family", "A", "--l", "1", "--n", "6"),
    ("count", "--family", "A", "--n", "3"),
    ("count", "--family", "B", "--l", "1", "--n", "3"),
]


@pytest.fixture
def parser_builds(monkeypatch):
    """Every ArgumentParser built while the test runs, subparsers included,
    starting from no cached parser; the cache is cleared again after."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    yield built
    cli.build_parser.cache_clear()


def test_one_process_runs_match_fresh_processes(capsys, parser_builds):
    """Each argv twice through cli.main in one process, the second pass in
    reverse so that subcommands and formats interleave: stdout, stderr and
    the exit code equal those of a fresh process, and one parser serves
    every call."""
    # The fresh processes run side by side; each is small.
    children = {
        argv: subprocess.Popen(
            [sys.executable, "-m", "gradedorbits", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")},
            cwd=PKG_ROOT,
        )
        for argv in ONE_PROCESS_RUNS
    }
    fresh = {}
    for argv, child in children.items():
        out, err = child.communicate(timeout=120)
        fresh[argv] = (child.returncode, out, err)
    after_first = None
    for argv in ONE_PROCESS_RUNS + ONE_PROCESS_RUNS[::-1]:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh[argv], argv
        if after_first is None:
            after_first = len(parser_builds)
    assert after_first > 0
    assert len(parser_builds) == after_first
    assert {code for code, _, _ in fresh.values()} == {0, 2}


def written_json(payload) -> str:
    chunks = []
    cli._put_json(payload, chunks.append)
    return "".join(chunks)


def dumped_json(payload) -> str:
    return json.dumps(payload, indent=2, default=cli._json_form)


# Every library type `_json_form` knows, nested ones included.  A label's
# stratum is written in its label's family's form; a bare stratum is not.
# Diagrams of both signs, with no rows and with repeated rows, reach each
# branch of the writer's one-chunk diagram form.
LIBRARY_OBJECTS = (
    list(iter_diagrams(3, MINUS, (1, 2, 1)))
    + list(iter_diagrams(2, PLUS, (2, 1)))
    + [empty_diagram(2, PLUS), empty_diagram(1, MINUS), canonicalize([(2, 1), (2, 1), (1, 2)], 2, PLUS)]
    + catalog(GradingSpec("AI", 2, (2, 2)), 2)
    + catalog(GradingSpec("AII", 3, (2, 2, 2)))
)
BARE_STRATA = (
    enumerate_strata(GradingSpec("AI", 3, (1, 1, 1)), 1)[0],
    enumerate_strata(GradingSpec("CII", 2, (2, 2)))[0],
)

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 0.1]),
    st.text(),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
    st.sampled_from(LIBRARY_OBJECTS),
)

PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@given(PAYLOADS)
@example({"a": [], "b": {}, "c": (), "d": [{}], "e": [[]]})
@example(["\u00e9\"\\\n\x00", -0.0, 1e300, float("nan"), float("-inf"), True, None, 10**30])
@example(LIBRARY_OBJECTS)
def test_json_writer_matches_json_dumps(payload):
    assert written_json(payload) == dumped_json(payload)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", Fraction(1, 2), 1j, *BARE_STRATA])
def test_json_writer_rejects_unknown_objects_as_json_dumps_does(bad):
    payload = {"rows": [1, {"x": bad}]}
    with pytest.raises(TypeError) as expected:
        dumped_json(payload)
    with pytest.raises(TypeError) as raised:
        written_json(payload)
    assert str(raised.value) == str(expected.value) == f"{type(bad).__name__} is not JSON serializable"


def test_json_listing_leaves_no_reference_cycles(tmp_path):
    out = tmp_path / "out.json"
    argv = [
        "distinguished", "--case", "AI", "--m", "3", "--dims", "1,2,2", "--oracle",
        "--seed", "5", "--format", "json", "--output", str(out),
    ]
    # the first call builds the parser, which the process keeps
    assert cli.main(argv) == 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.freeze()
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    assert json.loads(out.read_text())["diagrams"]
