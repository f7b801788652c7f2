import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as hst

from uncoiledtl import cli, selfcheck
from uncoiledtl.algebra import (AlgebraVariant, basis_enumerate,
                                dimension_closed_form)
from uncoiledtl.cli import run
from uncoiledtl.projectors import gamma_solve
from uncoiledtl.scalars import _int_to_str


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_dims_command(capsys):
    code, out = capture(capsys, ["dims", "--algebra", "uatl", "--n", "5",
                                 "--enumerate"])
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert row == {"n": 5, "closed_form": 180, "enumerated": 180,
                   "match": True}


def test_dims_sweep(capsys):
    code, out = capture(capsys, ["dims", "--algebra", "uptl1", "--max-n", "6",
                                 "--enumerate"])
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["results"]] == [2, 4, 6]
    assert all(r["match"] for r in doc["results"])


@pytest.mark.parametrize("algebra, max_n",
                         [("uatl", "0"), ("uatl", "-3"), ("uptl1", "1")])
def test_dims_sweep_below_the_smallest_size_is_invalid(capsys, algebra,
                                                       max_n):
    # an empty sweep would print "results": [] and pass
    assert run(["dims", "--algebra", algebra, "--enumerate",
                "--max-n", max_n]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "invalid input"


def test_dims_infinite_algebra_invalid(capsys):
    code = run(["dims", "--algebra", "atl", "--n", "4"])
    assert code == 3


def test_basis_art(capsys):
    code, out = capture(capsys, ["basis", "--algebra", "uptl1", "--n", "2",
                                 "--format", "art"])
    assert code == 0
    assert "|" in out or "<" in out


@pytest.mark.parametrize("algebra, n", [("uptl1", "4"), ("uatl2", "4")])
def test_basis_art_is_the_json_documents_art_field(capsys, algebra, n):
    argv = ["basis", "--algebra", algebra, "--n", n]
    code, out = capture(capsys, argv)
    assert code == 0
    assert capture(capsys, argv + ["--format", "art"]) == (
        0, json.loads(out)["art"] + "\n")


@pytest.mark.parametrize("algebra",
                         ["uatl", "uptl", "uatl1", "uptl1", "uatl2", "uptl2",
                          "tl"])
def test_streamed_basis_json_is_the_sorted_document(capsys, algebra):
    for n in range(1, 7):
        try:
            basis = basis_enumerate(AlgebraVariant(cli.ALGEBRA_NAMES[algebra],
                                                   n))
        except ValueError:
            continue
        doc = {"algebra": algebra, "n": n, "dimension": len(basis),
               "basis": [d.to_json() for d in basis],
               "art": "\n".join(d.art() for d in basis)}
        assert capture(capsys, ["basis", "--algebra", algebra,
                                "--n", str(n)]) == (
            0, json.dumps(doc, sort_keys=True) + "\n"), n


def test_basis_under_and_past_the_term_cap(capsys, monkeypatch):
    # uaTL n = 5 has 180 basis diagrams
    argv = ["basis", "--algebra", "uatl", "--n", "5"]
    monkeypatch.setenv("UTL_MAX_TERMS", "179")
    assert capture(capsys, argv) == (3, "")
    monkeypatch.setenv("UTL_MAX_TERMS", "180")
    code, out = capture(capsys, argv)
    assert code == 0 and json.loads(out)["dimension"] == 180


def test_basis_past_the_default_cap_is_refused_before_building(capsys):
    # uaTL n = 13 has 11,099,088 basis diagrams
    start = time.perf_counter()
    assert capture(capsys, ["basis", "--algebra", "uatl", "--n", "13"]) == (
        3, "")
    assert time.perf_counter() - start < 5


def test_gamma_both_methods(capsys):
    code, out = capture(capsys, ["gamma", "--algebra", "uatl", "--n", "9",
                                 "--r", "0", "--seed", "3",
                                 "--method", "both"])
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert all(d["value"] == "0" for d in doc["diff"])


def test_projector_certificate(capsys):
    code, out = capture(capsys, ["projector", "--algebra", "uptl1", "--n",
                                 "2", "--verify", "--oracle", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    # the displayed Q_2 coefficient beta/(alpha^2 - beta^2) at this env
    from fractions import Fraction
    from uncoiledtl.scalars import sample_env
    env = sample_env(7, "upTL1", 2)
    beta = env.beta
    want = beta / (env.alpha ** 2 - beta ** 2)
    entry = [e for e in doc["gamma_table"]["entries"] if e["k"] == 1][0]
    num, den = entry["value"].split("/")
    assert Fraction(int(num), int(den)) == want


def test_byte_identical_reruns(capsys):
    args = ["gamma", "--algebra", "uptl2", "--n", "6", "--seed", "5",
            "--method", "solver"]
    _, out1 = capture(capsys, args)
    _, out2 = capture(capsys, args)
    assert out1 == out2


def test_explicit_parameters(capsys):
    code, out = capture(capsys, ["gamma", "--algebra", "uptl2", "--n", "4",
                                 "--q-half", "3/2", "--gamma", "5/7",
                                 "--method", "both"])
    assert code == 0
    doc = json.loads(out)
    assert doc["env"]["s"] == "3/2" and doc["env"]["gamma"] == "5/7"
    assert doc["match"] is True


def test_nongeneric_exit_code(capsys):
    code = run(["gamma", "--algebra", "uptl2", "--n", "4",
                "--q-half", "1/1", "--method", "solver"])
    assert code == 2


def test_invalid_flags_exit_code():
    assert run(["dims", "--algebra", "nosuch", "--n", "3"]) == 3
    assert run(["gamma", "--algebra", "uatl", "--n", "4",
                "--method", "solver"]) == 3  # parity mismatch


def test_central_command(capsys):
    code, out = capture(capsys, ["central", "--n", "3", "--which", "F",
                                 "--seed", "4"])
    assert code == 0
    doc = json.loads(out)
    assert all(r["scalar_action"] for r in doc["results"])


def test_central_H_command(capsys):
    code, out = capture(capsys, ["central", "--n", "4", "--which", "H",
                                 "--k", "1/2", "--seed", "4"])
    assert code == 0
    doc = json.loads(out)
    assert all(r["scalar_action"] for r in doc["results"])


def test_central_omega_n_past_the_matrix_cap_exits_3(capsys):
    # W_{14,0,z} has 3,432 states: 11.8M entries pass UTL_MAX_TERMS
    start = time.perf_counter()
    code, out = capture(capsys, ["central", "--which", "OmegaN", "--n", "14",
                                 "--seed", "1"])
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 5  # refused before the matrix


def test_central_omega_n_under_a_raised_matrix_cap(capsys, monkeypatch):
    # W_{8,0,z} has 70 states: its 4,900 entries need UTL_MAX_TERMS >= 4900
    argv = ["central", "--which", "OmegaN", "--n", "8", "--seed", "1"]
    monkeypatch.setenv("UTL_MAX_TERMS", "4899")
    assert capture(capsys, argv) == (3, "")
    monkeypatch.setenv("UTL_MAX_TERMS", "4900")
    code, out = capture(capsys, argv)
    assert code == 0
    assert all(r["scalar_action"] for r in json.loads(out)["results"])


def test_selfcheck_ok_and_fault_injection(capsys, monkeypatch):
    code, out = capture(capsys, ["selfcheck", "--max-n", "3"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    corrupted = []

    def corrupt_gamma_solve(variant, n, r, env):
        tbl = gamma_solve(variant, n, r, env)
        key = max(tbl.entries)
        tbl.entries[key] = tbl.entries[key] + 1
        corrupted.append((variant.kind, n, key))
        return tbl

    monkeypatch.setattr(selfcheck, "gamma_solve", corrupt_gamma_solve)
    code, out = capture(capsys, ["selfcheck", "--max-n", "3"])
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"]
    kind, n, key = corrupted[0]
    [detail] = [c["detail"] for c in doc["checks"] if not c["passed"]]
    assert f"{kind} n={n}" in detail and f"(k, l2)={key}" in detail


@pytest.mark.parametrize("max_n", ["1", "0", "-2"])
def test_selfcheck_below_the_smallest_size_is_invalid(capsys, max_n):
    # below n = 2 every uncoiled check would pass over an empty range
    assert run(["selfcheck", "--max-n", max_n]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "invalid input"


def test_internal_key_error_is_not_invalid_input(monkeypatch):
    def broken(variant):
        raise KeyError("an internal lookup")

    monkeypatch.setattr(cli, "dimension_closed_form", broken)
    with pytest.raises(KeyError):
        run(["dims", "--algebra", "uatl", "--n", "3"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "uncoiledtl.cli", "dims", "--algebra",
         "uatl2", "--n", "4", "--enumerate"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["match"] is True


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # inspect brings ast, dis and tokenize: milliseconds of every utl call
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, uncoiledtl.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_closed_stdout_ends_quietly_by_sigpipe():
    # a reader such as `head -c 100` that closes the pipe before utl writes:
    # utl dies of SIGPIPE like cat, not of a BrokenPipeError traceback
    # (exit 1 would read as a failed verification)
    proc = subprocess.Popen(
        [sys.executable, "-m", "uncoiledtl.cli", "projector", "--verify",
         "--algebra", "uptl1", "--n", "2", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert "Traceback" not in err


def test_parser_is_built_once_per_process(capsys):
    assert run(["dims", "--algebra", "uatl", "--n", "3"]) == 0
    assert cli._parser() is cli._parser()
    assert run(["dims", "--algebra", "uatl", "--n", "5"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [d["results"][0]["n"] for d in docs] == [3, 5]


def _run_quiet(argv):
    """run(argv) with stdout and stderr captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], ["projector", "--help"], ["gamma", "--help"],
    ["projector", "--bogus"], ["nope"], ["projector"],
    ["selfcheck", "--max-n", "x"], [], ["dims", "--algebra", "uatl",
                                        "--n", "3"]])
def test_one_command_parser_answers_as_the_whole_parser(argv, monkeypatch):
    got = _run_quiet(argv)
    monkeypatch.setattr(cli, "_parser",
                        lambda command=None: cli.build_parser())
    assert _run_quiet(argv) == got


def test_a_command_parser_holds_that_command_alone():
    with pytest.raises(ValueError, match="invalid choice: 'dims'"):
        cli.build_parser("gamma").parse_args(["dims", "--algebra", "uatl"])
    assert cli._parser("gamma") is cli._parser("gamma")
    assert cli._parser("gamma") is not cli._parser()


def test_command_names_are_the_whole_parser_commands():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == cli._COMMAND_NAMES


def _argparse_attrs(argv):
    """vars() of the Namespace argparse gives argv, or None where it
    refuses the line or prints help."""
    command = argv[0] if argv and argv[0] in cli._COMMAND_NAMES else None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli._parser(command).parse_args(argv))
    except (ValueError, SystemExit):
        return None


ODD_VALUES = ("-1", "-2.5", "x", "", "1/2", "nope", "07", "-", "--n")
ODD_FORMS = ("absent", "odd value", "abbreviated", "equals", "twice", "bare")
_ALL_FLAGS = sorted({flag for command in cli._COMMAND_NAMES
                     for flag in cli._flags(command)})


def _good_values(options):
    if "choices" in options:
        return tuple(options["choices"])
    if options.get("type") is int:
        return ("0", "3", "12")
    return ("2", "1/2", "-3")


@hst.composite
def _command_lines(draw):
    """A command (or none) and its flags, in any order: the required ones
    given well and the others absent or given well, except up to two in an
    odd form, maybe with one stray token."""
    command = draw(hst.sampled_from(cli._COMMAND_NAMES + ("nope", "-h")))
    flags = cli._flags(command if command in cli._COMMANDS else "gamma")
    odd = draw(hst.lists(hst.sampled_from(list(flags)), max_size=2))
    groups = []
    for flag, options in flags.items():
        value = [] if options.get("action") == "store_true" else [
            draw(hst.sampled_from(_good_values(options)))]
        if flag in odd:
            forms = ODD_FORMS
        elif options.get("required"):
            forms = ("exact",)
        else:
            forms = ("absent", "exact")
        form = draw(hst.sampled_from(forms))
        groups.append({
            "absent": [],
            "exact": [flag] + value,
            "odd value": [flag, draw(hst.sampled_from(ODD_VALUES))],
            "abbreviated": [flag[:-1]] + value,
            "equals": [f"{flag}={(value or ['1'])[0]}"],
            "twice": ([flag] + value) * 2,
            "bare": [flag]}[form])
    stray = draw(hst.lists(hst.sampled_from(
        ("-h", "--help", "--bogus", "--", "3") + tuple(_ALL_FLAGS)),
        max_size=1))
    return [command] + [token for group in draw(hst.permutations(groups))
                        for token in group] + stray


@given(_command_lines())
@example(["selfcheck"])
@example(["projector", "--algebra", "uatl", "--n", "3", "--verify",
          "--oracle"])
@example(["dims", "--algebra", "nope", "--n", "3"])
@example(["central", "--n", "3", "--which", "X"])
@example(["basis", "--algebra", "uatl", "--n", "x"])
@example(["basis", "--algebra", "uatl"])
@example(["projector", "--algebra", "uatl", "--n", "3", "--verify", "1"])
@example(["gamma", "--algebra", "uatl", "--n", "3", "--seed", "-1"])
@example(["central", "--n", "3", "--which", "F", "--k", "-x"])
@example(["gamma", "--algebra", "uatl", "--n", "3", "--k", "1"])
@example(["dims", "--algebra", "uatl", "--n", "3", "--n", "4"])
@example(["dims", "--alg", "uatl", "--n", "3"])
@example(["dims", "--algebra=uatl", "--n", "3"])
@settings(max_examples=400, deadline=None)
def test_direct_parse_sets_what_argparse_sets_or_declines(argv):
    direct = cli._parse_direct(argv)
    assert direct is None or vars(direct) == _argparse_attrs(argv), argv


# Every README and CI command line, and one operation of each benchmark
# shape: a well-formed line that argparse would parse costs about 2 ms of
# a utl call.
DIRECT_LINES = """\
dims --algebra uatl --n 5 --enumerate
basis --algebra uptl1 --n 4 --format art
gamma --algebra uatl --n 9 --r 0 --method both --seed 3
projector --algebra uptl1 --n 2 --verify --oracle --seed 7
central --n 4 --which H --k 1/2
selfcheck --max-n 4
dims --algebra uatl --n 3
dims --algebra uatl2 --n 4 --enumerate
basis --algebra uatl --n 13
gamma --algebra uptl --n 3 --r 0
gamma --algebra uatl --n 3 --gamma 2 --gamma-root 3 --seed 1
gamma --algebra uptl1 --n 4 --seed 1 --gamma 2
gamma --algebra uptl --n 3 --gamma-root 2
central --n 3 --which F --k 5
central --n 3 --which F
basis --algebra uatl2 --n 10 --format art
basis --algebra uatl2 --n 10
selfcheck --max-n 7 --seed 1
gamma --method both --algebra uptl --n 21 --seed 1
gamma --method both --algebra uatl --n 21 --seed 1
gamma --method both --algebra uptl2 --n 20 --seed 1
gamma --method both --algebra uatl --n 41 --seed 1
gamma --method both --algebra uatl2 --n 40 --seed 1
gamma --method both --algebra uptl1 --n 40 --seed 1
gamma --method both --algebra uptl2 --n 40 --seed 1
gamma --method both --algebra uatl1 --n 20 --gamma-root -1 --r 10 --seed 1
projector --verify --oracle --algebra uatl1 --n 6 --gamma-root 1 --r 0 --seed 1
projector --verify --oracle --algebra uatl1 --n 6 --gamma-root -1 --r 3 --seed 1
projector --verify --oracle --algebra uptl1 --n 6 --seed 1
projector --verify --oracle --algebra uatl2 --n 6 --seed 1
projector --verify --oracle --algebra uptl2 --n 6 --seed 1
projector --verify --algebra uatl --n 7 --seed 1
projector --verify --algebra uptl --n 7 --seed 1
projector --verify --algebra uptl2 --n 8 --seed 1
projector --verify --algebra uptl1 --n 8 --seed 1
central --which F --n 8 --seed 1
central --which Fbar --n 8 --seed 1
central --which G --n 8 --seed 1
central --which H --n 8 --k 3/2 --seed 1
dims --enumerate --max-n 15 --algebra uatl
dims --enumerate --max-n 16 --algebra uptl1
dims --enumerate --max-n 16 --algebra uatl2
dims --enumerate --max-n 16 --algebra uptl2
dims --enumerate --max-n 18 --algebra uatl1
dims --enumerate --max-n 17 --algebra uptl
dims --enumerate --max-n 10 --algebra uatl1
central --which F --n 7 --seed 493022
central --which Fbar --n 3 --seed 17
central --which H --n 6 --seed 8 --k 2
gamma --method both --algebra uatl1 --n 20 --seed 5 --gamma-root 1 --r 0
projector --verify --algebra uatl2 --n 6 --seed 902
projector --verify --oracle --algebra uptl --n 3 --seed 41
"""


@pytest.mark.parametrize("line", DIRECT_LINES.splitlines())
def test_canonical_command_lines_take_the_direct_parse(line):
    argv = line.split()
    direct = cli._parse_direct(argv)
    assert direct is not None
    assert vars(direct) == _argparse_attrs(argv)


@pytest.mark.parametrize("argv", [
    ["dims", "--algebra", "uatl", "--n", "3", "--enumerate"],
    ["basis", "--algebra", "uptl1", "--n", "2", "--format", "art"],
    ["gamma", "--algebra", "uatl", "--n", "3", "--seed", "1"],
    ["projector", "--algebra", "uptl1", "--n", "2", "--verify", "--seed", "1"],
    ["central", "--n", "3", "--which", "F", "--seed", "2"],
    ["selfcheck", "--max-n", "2"],
    ["gamma", "--algebra", "uptl", "--n", "3", "--r", "0"],
    ["--help"], ["projector", "--help"], ["projector", "--bogus"],
    ["gamma", "--algebra", "uatl", "--seed", "1"],
    ["dims", "--algebra", "uatl", "--n", "x"],
    ["central", "--n", "3", "--which", "X"]])
def test_output_does_not_depend_on_the_parse_path(argv, monkeypatch):
    got = _run_quiet(argv)
    monkeypatch.setattr(cli, "_parse_direct", lambda argv: None)
    assert _run_quiet(argv) == got


GAMMA_HELP = """\
usage: utl gamma [-h] --algebra {atl,ptl,tl,uatl,uatl1,uatl2,uptl,uptl1,uptl2}
                 [--seed SEED] [--q-half P/Q] [--alpha P/Q] [--gamma P/Q]
                 [--gamma-root P/Q] --n N [--r R]
                 [--method {solver,conjecture,both}]

options:
  -h, --help            show this help message and exit
  --algebra {atl,ptl,tl,uatl,uatl1,uatl2,uptl,uptl1,uptl2}
  --seed SEED
  --q-half P/Q
  --alpha P/Q
  --gamma P/Q
  --gamma-root P/Q      omega; sets gamma = omega^n
  --n N
  --r R
  --method {solver,conjecture,both}
"""


def test_a_well_formed_call_loads_neither_argparse_nor_locale():
    # argparse, with the locale module its messages import, is built for
    # help and errors alone; help still reads as before
    script = (
        "import sys\n"
        "from uncoiledtl.cli import run\n"
        "codes = [run(['dims', '--algebra', 'uatl', '--n', '3']),\n"
        "         run(['central', '--n', '3', '--which', 'F'])]\n"
        "print(codes, sorted({'argparse', 'locale'} & set(sys.modules)),\n"
        "      file=sys.stderr)\n"
        "sys.exit(run(['gamma', '--help']))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "COLUMNS": "80"})
    assert (proc.returncode, proc.stderr) == (0, "[0, 0] []\n")
    assert proc.stdout.endswith("}\n" + GAMMA_HELP)


def _error_code(argv):
    code, _, err = _run_quiet(argv)
    assert "error" in json.loads(err), err
    return code


@pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                         ids=["verify", "oracle"])
@pytest.mark.parametrize("algebra", ["uatl", "uptl"])
def test_projector_verify_on_one_strand(algebra, oracle):
    # one strand carries no TL generator, so Q = id is annihilated vacuously
    code, out, _ = _run_quiet(["projector", "--verify", "--algebra", algebra,
                               "--n", "1", "--seed", "0"] + oracle)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(checks.values()) and ("matches_oracle" in checks) == bool(oracle)


@pytest.mark.parametrize("algebra,kind,n", [
    ("uptl", "upTL", 3), ("uatl1", "uaTL1", 4), ("uptl2", "upTL2", 4)])
def test_a_singular_oracle_system_is_a_failed_check(singular_oracle,
                                                    algebra, kind, n):
    # valid input whose oracle check fails: exit 1, not 3 (invalid input)
    singular_oracle(kind, n)
    code, out, err = _run_quiet(["projector", "--verify", "--oracle",
                                 "--algebra", algebra, "--n", str(n),
                                 "--seed", "1"])
    assert code == 1, err
    checks = json.loads(out)["checks"]
    assert checks.pop("matches_oracle") is False
    assert all(checks.values()), checks
    assert json.loads(err)["error"] == "verification failed"


# Each subcommand's base command line and the shared flags it reads; every
# other shared flag is refused as invalid input.
SUBCOMMAND_FLAGS = {
    "dims": (["dims", "--algebra", "uatl", "--n", "5"], ()),
    "basis": (["basis", "--algebra", "uatl", "--n", "3"], ("--format",)),
    "gamma": (["gamma", "--algebra", "uatl1", "--n", "2", "--seed", "1",
               "--r", "0"],
              ("--seed", "--q-half", "--alpha", "--gamma", "--gamma-root")),
    "projector": (["projector", "--algebra", "uatl1", "--n", "2", "--seed",
                   "1", "--r", "0"],
                  ("--seed", "--q-half", "--alpha", "--gamma",
                   "--gamma-root")),
    "central": (["central", "--n", "3", "--which", "F"],
                ("--seed", "--q-half", "--z")),
    "selfcheck": (["selfcheck", "--max-n", "2"], ("--seed",)),
}
SHARED_FLAG_VALUES = {"--seed": "1", "--q-half": "2", "--alpha": "3",
                      "--gamma": "5", "--gamma-root": "2", "--z": "3",
                      "--format": "json"}
DROPPED_FLAGS = [(command, flag)
                 for command, (_, kept) in SUBCOMMAND_FLAGS.items()
                 for flag in SHARED_FLAG_VALUES if flag not in kept]


def test_each_subcommand_keeps_the_shared_flags_it_reads():
    assert len(DROPPED_FLAGS) == 27
    # the flags a subcommand reads still parse (--gamma 5 is no omega^n of
    # uaTL1, a non-generic point: exit 2)
    for base, kept in SUBCOMMAND_FLAGS.values():
        assert _run_quiet(base)[0] == 0
        for flag in kept:
            assert _run_quiet(base + [flag, SHARED_FLAG_VALUES[flag]])[0] \
                in (0, 2)


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_a_flag_its_subcommand_does_not_read_is_invalid_input(command, flag):
    base, _ = SUBCOMMAND_FLAGS[command]
    code, out, err = _run_quiet(base + [flag, SHARED_FLAG_VALUES[flag]])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "invalid input"


def _assert_refused(argv):
    code, out, err = _run_quiet(argv)
    assert (code, out) == (3, ""), argv
    assert json.loads(err)["error"] == "invalid input"


@pytest.mark.parametrize("command", ["gamma", "projector"])
def test_gamma_with_gamma_root_is_invalid_input(command):
    # --gamma-root sets gamma = omega^n, which would drop --gamma
    _assert_refused([command, "--algebra", "uatl", "--n", "3", "--seed", "1",
                     "--gamma", "2", "--gamma-root", "3"])


@pytest.mark.parametrize("command", ["gamma", "projector"])
def test_gamma_for_uptl1_is_invalid_input(command):
    # the full turn of upTL1 weighs one, which would drop --gamma
    _assert_refused([command, "--algebra", "uptl1", "--n", "4", "--seed", "1",
                     "--gamma", "2"])


@pytest.mark.parametrize("algebra, n", [("uptl", "3"), ("uptl1", "4"),
                                        ("uptl2", "4")])
def test_gamma_root_of_a_kind_without_omega_is_invalid_input(algebra, n):
    # the periodic kinds have no omega for --gamma-root to set
    for command in ("gamma", "projector"):
        _assert_refused([command, "--algebra", algebra, "--n", n,
                         "--gamma-root", "2"])


@pytest.mark.parametrize("algebra, n", [("uatl", "3"), ("uptl", "3"),
                                        ("uatl2", "4"), ("uptl2", "4")])
@pytest.mark.parametrize("command", ["gamma", "projector"])
def test_alpha_of_a_kind_whose_loops_weigh_no_alpha_is_invalid_input(
        command, algebra, n):
    # only the starred kinds weigh a loop by alpha; the others would drop it
    _assert_refused([command, "--algebra", algebra, "--n", n, "--seed", "1",
                     "--alpha", "3"])


@pytest.mark.parametrize("command", ["gamma", "projector"])
@pytest.mark.parametrize("algebra, r", [("uatl1", ["--r", "0"]),
                                        ("uptl1", [])])
def test_starred_kinds_read_alpha(command, algebra, r):
    code, out, err = _run_quiet([command, "--algebra", algebra, "--n", "2",
                                 "--seed", "1", "--alpha", "7/3"] + r)
    assert code == 0, err
    assert json.loads(out)["env"]["alpha"] == "7/3"


def test_dims_max_n_with_n_is_invalid_input():
    # --n is the one size, so a --max-n beside it would be dropped
    _assert_refused(["dims", "--algebra", "uatl", "--n", "3",
                     "--max-n", "7"])
    code, out, _ = _run_quiet(["dims", "--algebra", "uatl", "--max-n", "7"])
    assert code == 0
    assert [row["n"] for row in json.loads(out)["results"]] == [1, 3, 5, 7]


@pytest.mark.parametrize("which", ["F", "Fbar", "G", "OmegaN"])
def test_central_k_without_H_is_invalid_input(which):
    # --k is the index of H alone; the other elements would ignore it
    _assert_refused(["central", "--n", "3", "--which", which, "--k", "5"])


def test_zero_denominator_is_invalid_input():
    assert _error_code(["central", "--n", "3", "--which", "F",
                        "--z", "1/0"]) == 3
    assert _error_code(["central", "--n", "3", "--which", "H",
                        "--k", "1/0"]) == 3


def test_zero_twist_is_nongeneric():
    assert _error_code(["gamma", "--algebra", "uptl", "--n", "3",
                        "--gamma", "0"]) == 2
    assert _error_code(["gamma", "--algebra", "uatl", "--n", "3",
                        "--gamma-root", "0"]) == 2
    # the module twist z too, which central alone reads
    assert _error_code(["gamma", "--algebra", "uatl", "--n", "3",
                        "--z", "0"]) == 3
    assert _error_code(["central", "--n", "3", "--which", "F",
                        "--z", "0"]) == 2


def test_affine_sector_out_of_range_is_invalid():
    assert _error_code(["projector", "--algebra", "uatl", "--n", "3",
                        "--r", "5"]) == 3
    assert _error_code(["gamma", "--algebra", "uatl2", "--n", "4",
                        "--r", "-1"]) == 3


@pytest.mark.parametrize("algebra, n", [("uptl", "3"), ("uptl1", "4"),
                                        ("uptl2", "4")])
def test_periodic_sector_label_is_invalid(algebra, n):
    # the periodic kinds admit no sector, not even r = 0
    for r in ("0", "7"):
        assert _error_code(["gamma", "--algebra", algebra, "--n", n,
                            "--r", r]) == 3
        assert _error_code(["projector", "--algebra", algebra, "--n", n,
                            "--verify", "--r", r]) == 3


@pytest.mark.parametrize("command", [["gamma"], ["projector", "--verify"]])
@pytest.mark.parametrize("algebra, n, root, realized", [
    ("uatl", 3, [], 0), ("uatl", 3, ["--gamma-root", "-2"], 1),
    ("uatl2", 4, [], 0), ("uatl2", 4, ["--gamma-root", "-2"], 2)])
def test_affine_sector_label_must_name_the_root_omega_is(command, algebra, n,
                                                         root, realized):
    # the sampled omega is positive, r = 0; a negative one is r = n // 2;
    # every other label would print a table that is not its sector's
    base = command + ["--algebra", algebra, "--n", str(n), "--seed", "1"]
    for r in range(n):
        code, out, err = _run_quiet(base + root + ["--r", str(r)])
        if r == realized:
            assert code == 0, err
            assert json.loads(out)["r"] == r
        else:
            assert (code, out) == (3, ""), r
            assert "inconsistent with omega" in json.loads(err)["detail"]


def test_uatl1_closed_form_needs_no_sector_label():
    # omega = -1 is r = n/2; the label, given or not, is only printed
    base = ["gamma", "--algebra", "uatl1", "--n", "4", "--seed", "1",
            "--gamma-root", "-1"]
    docs = []
    for r in ([], ["--r", "2"]):
        code, out, err = _run_quiet(base + r)
        assert code == 0, err
        docs.append(json.loads(out))
    assert [doc["r"] for doc in docs] == [None, 2]
    assert docs[0]["match"] is True
    assert docs[0]["conjecture"]["entries"] == docs[1]["conjecture"]["entries"]


@pytest.mark.parametrize("argv", [
    ["gamma", "--algebra", "uatl", "--n", "3", "--q-half", ""],
    ["gamma", "--algebra", "uatl", "--n", "3", "--alpha", ""],
    ["projector", "--algebra", "uatl1", "--n", "2", "--alpha", ""],
    ["gamma", "--algebra", "uptl", "--n", "3", "--gamma", ""],
    ["projector", "--algebra", "uatl", "--n", "3", "--gamma-root", ""],
    ["gamma", "--algebra", "uatl", "--n", "3", "--gamma", "",
     "--gamma-root", "3"],
    ["central", "--n", "3", "--which", "F", "--z", ""],
    ["central", "--n", "3", "--which", "H", "--k", ""],
])
def test_an_empty_flag_value_is_invalid_input(argv):
    # an empty value is given, not absent: the kind refuses it or it fails
    # to parse as a rational
    _assert_refused(argv)


def test_huge_decimal_exponent_is_invalid_input():
    # Fraction("1e-100000000") would build 10**100000000
    central_z = ["central", "--n", "3", "--which", "F", "--z"]
    for argv in (central_z, ["gamma", "--algebra", "uatl1", "--n", "2",
                             "--r", "0", "--alpha"]):
        t0 = time.perf_counter()
        assert _error_code(argv + ["1e-100000000"]) == 3
        assert time.perf_counter() - t0 < 1
    assert _error_code(central_z + ["1E+4301"]) == 3
    assert run(central_z + ["25e-1"]) == 0


def test_uatl1_needs_a_unit_full_turn():
    # the full turn of uaTL1 weighs one, so omega^n = 1
    assert _error_code(["projector", "--algebra", "uatl1", "--n", "2",
                        "--verify", "--seed", "1", "--gamma-root", "9"]) == 2
    code, out, _ = _run_quiet(["projector", "--algebra", "uatl1", "--n", "2",
                               "--verify", "--seed", "1", "--gamma-root",
                               "-1", "--r", "1"])
    assert code == 0 and json.loads(out)["verified"] is True


def test_dims_explicit_size_must_be_admitted():
    assert _error_code(["dims", "--algebra", "uatl", "--n", "0"]) == 3
    assert _error_code(["dims", "--algebra", "uatl", "--n", "4"]) == 3


@pytest.mark.parametrize("algebra, kind, n", [("uatl", "uaTL", 7201),
                                               ("tl", "TL", 7200),
                                               ("uptl1", "upTL1", 7200)])
def test_dims_prints_dimensions_past_the_str_digit_limit(algebra, kind, n):
    code, out, err = _run_quiet(["dims", "--algebra", algebra, "--n", str(n)])
    assert code == 0, err
    digits = _int_to_str(dimension_closed_form(AlgebraVariant(kind, n)))
    assert len(digits) > 4300
    assert out == (f'{{"algebra": "{algebra}", "results": '
                   f'[{{"closed_form": {digits}, "n": {n}}}]}}\n')


@pytest.mark.parametrize("limit", [None, 1000])
def test_dims_leaves_the_str_digit_limit_as_it_was(limit):
    before = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        want = sys.get_int_max_str_digits()
        assert _run_quiet(["dims", "--algebra", "uatl", "--n", "7201"])[0] == 0
        assert _run_quiet(["dims", "--algebra", "uatl", "--n", "5"])[0] == 0
        assert sys.get_int_max_str_digits() == want
    finally:
        sys.set_int_max_str_digits(before)


def test_gamma_prints_integers_past_the_str_digit_limit():
    code, out, _ = _run_quiet(["gamma", "--algebra", "uptl", "--n", "21",
                               "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["solver"]["entries"] == doc["conjecture"]["entries"]
    longest = max(len(e["value"]) for e in doc["solver"]["entries"])
    assert longest > 4300


RATIONAL = hst.one_of(
    hst.integers(-12, 12).map(str),
    hst.tuples(hst.integers(-12, 12), hst.integers(-3, 6)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"))
RATIONAL_FLAGS = ("--q-half", "--alpha", "--gamma", "--gamma-root", "--z")


@given(hst.sampled_from(("gamma", "projector", "central")),
       hst.dictionaries(hst.sampled_from(RATIONAL_FLAGS), RATIONAL,
                        max_size=3),
       RATIONAL, hst.integers(0, 5), hst.data())
@settings(max_examples=150, deadline=None)
def test_rational_flags_keep_the_exit_code_contract(command, flags, k, seed,
                                                    data):
    if command == "central":
        argv = ["central", "--n", "3", "--which",
                data.draw(hst.sampled_from(("F", "H"))), "--k", k]
        # central reads only --q-half and --z of these (the rest exit 3)
        flags = {f: v for f, v in flags.items() if f in ("--q-half", "--z")}
    else:
        kind, n = data.draw(hst.sampled_from(
            (("uatl", 3), ("uptl", 3), ("uatl1", 2), ("uptl1", 2),
             ("uatl2", 2), ("uptl2", 2))))
        argv = [command, "--algebra", kind, "--n", str(n)]
        if command == "projector" and data.draw(hst.booleans()):
            argv.append("--verify")
    argv += ["--seed", str(seed)]
    for flag, value in flags.items():
        argv += [f"{flag}={value}"]
    code, _, err = _run_quiet(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert "error" in json.loads(err), (argv, err)
