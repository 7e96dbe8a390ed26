import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from addforms import abelian, bounds, cli, linform, reduction
from addforms.abelian import FiniteAbelianGroup
from addforms.cli import main

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


def test_density_example(capsys):
    code, report = run_json(
        capsys, "density", "--group", "Z4", "--set", "{0,2}", "--system", "[g1]"
    )
    assert code == 0
    assert report["schema"] == "addforms/1"
    assert report["value"] == {"num": 1, "den": 2, "dec": "0.5"}


def test_energy_with_fourier(capsys):
    code, report = run_json(
        capsys, "energy", "--group", "Z4", "--set", "{0,1}", "--fourier"
    )
    assert code == 0
    assert report["raw"] == 6
    assert report["normalized"]["num"] == 3 and report["normalized"]["den"] == 32
    assert abs(report["fourier"] - 6 / 64) < 1e-9


def test_sumset_doubling_stabilizer(capsys):
    code, report = run_json(
        capsys, "sumset", "--group", "Z5", "--set-a", "{0,1}", "--set-b", "{0,1}"
    )
    assert code == 0
    assert report["result"]["elements"] == [[0], [1], [2]]

    code, report = run_json(capsys, "doubling", "--group", "Z5", "--set", "{0,1}")
    assert report["value"] == {"num": 3, "den": 2, "dec": "1.5"}

    code, report = run_json(capsys, "stabilizer", "--group", "Z4", "--set", "{0,2}")
    assert report["result"]["elements"] == [[0], [2]]


def test_check_energy_bound_exhaustive(capsys):
    code, report = run_json(
        capsys, "check", "--energy-bound", "--group", "Z8", "--exhaustive"
    )
    assert code == 0
    assert report["checked"] == 256
    assert report["violations"] == 0


def test_check_single_instance(capsys):
    code, report = run_json(
        capsys,
        "check",
        "--kneser",
        "--group",
        "Z5",
        "--set-a",
        "{0,1}",
        "--set-b",
        "{0,1}",
    )
    assert code == 0
    assert report["lhs"]["num"] == 0
    assert report["holds"] is True


def test_check_region_violation_exit_code(capsys):
    code, report = run_json(
        capsys, "check", "--region-graph", "--x", "1", "--y", "1/2"
    )
    assert code == 1
    assert report["holds"] is False
    assert report["witnesses"]


def test_verify_pinpoint(capsys):
    code, report = run_json(capsys, "verify", "pinpoint", "--k", "3")
    assert code == 0
    assert report["checked"] == 4096
    assert report["violations"] == 0
    assert report["ok"] is True


def test_verify_witness(capsys):
    code, report = run_json(capsys, "verify", "witness", "--k", "2", "--n", "3,3")
    assert code == 0
    assert report["good_g_count"] == 36
    assert all(c["agree"] for c in report["classes"])


def test_verify_bollobas_and_delta(capsys):
    code, report = run_json(capsys, "verify", "bollobas", "--t-max", "40")
    assert code == 0 and report["ok"]
    code, report = run_json(
        capsys, "verify", "delta-claims", "--step", "1/100", "--t-max", "6"
    )
    assert code == 0 and report["ok"]


def test_verify_homdensity(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "homdensity",
        "--group",
        "Z9xZ2",
        "--k",
        "2",
        "--pairs",
        "5",
        "--seed",
        "3",
    )
    assert code == 0
    assert report["pairs_checked"] == 5
    assert report["mismatches"] == []


def test_reduce_bundle(capsys):
    code, report = run_json(capsys, "reduce", "--poly", "x1 - y1", "--k", "1")
    assert code == 0
    assert report["bundle"]["qstar"] == "v1*e1 - t1"
    assert "L" in report["bundle"]["systems"]


def test_witness_writes_subset_file(capsys, tmp_path):
    target = tmp_path / "witness.subset"
    code, report = run_json(
        capsys,
        "witness",
        "--k",
        "2",
        "--n",
        "3,3",
        "--subset-file",
        str(target),
    )
    assert code == 0
    assert report["witness"]["subsetFile"] == str(target)
    assert report["group_order"] == 81
    lines = [
        line
        for line in target.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(lines) == 21


def test_estimate_deterministic(capsys):
    args = (
        "estimate",
        "--group",
        "Z100",
        "--set",
        "{" + ",".join(str(i) for i in range(50)) + "}",
        "--system",
        "[g1]",
        "--samples",
        "10000",
        "--seed",
        "7",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["approximate"] is True
    assert abs(report["estimate"] - 0.5) <= report["radius"]


def test_delta_claims_refuse_a_grid_over_the_budget(capsys):
    argv = ["verify", "delta-claims", "--step", "1/100", "--t-max", "6"]
    code, out, _ = run_cli(capsys, *argv, "--max-work", "2000")
    assert code == 0 and json.loads(out)["ok"]
    code, out, err = run_cli(capsys, *argv, "--max-work", "100")
    assert code == 3 and out == ""
    assert err.startswith("resource cap: predicted work ") and "exceeds budget 100;" in err
    code, out, err = run_cli(capsys, "verify", "delta-claims", "--step", "1/10000000000")
    assert code == 3 and out == "" and "exceeds budget 1000000000;" in err


def test_estimate_refuses_oversized_sampling_before_drawing(capsys, monkeypatch):
    argv = ["estimate", "--group", "Z4", "--set", "{0}", "--system", "[g1]", "--samples"]

    def drawn(*args):
        raise AssertionError("a table was built for sampling")

    # --max-work moves the budget: 1000 samples of one form run at 1000
    code, out, _ = run_cli(capsys, *argv, "1000", "--max-work", "1000")
    assert code == 0 and json.loads(out)["params"]["samples"] == 1000
    # samples * forms over the budget, 10^9 by default, is refused before
    # any table is built or any sample drawn
    monkeypatch.setattr(linform, "_tables", drawn)
    code, out, err = run_cli(capsys, *argv, "99999999999999")
    assert code == 3 and out == ""
    assert err.startswith("resource cap: predicted work 99999999999999 exceeds budget 1000000000")
    assert "Traceback" not in err
    code, out, err = run_cli(capsys, *argv, "1000", "--max-work", "999")
    assert code == 3 and "predicted work 1000 exceeds budget 999; raise the budget" in err
    code, out, err = run_cli(capsys, *argv, "0")
    assert code == 2 and out == ""
    assert "argument --samples: must be at least 1, got 0" in err


def test_byte_identical_reports_across_invocations(capsys):
    invocations = [
        ("density", "--group", "Z9xZ2", "--set", "{(0,0),(1,1)}", "--system", "[g1; g2]"),
        ("check", "--kneser", "--group", "Z4", "--exhaustive"),
        ("verify", "pinpoint", "--k", "2", "--threads", "2"),
    ]
    for argv in invocations:
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "density",
        "--group",
        "Z4",
        "--set",
        "{0}",
        "--system",
        "[g1]",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"]["num"] == 1


def test_exit_code_parse_error(capsys):
    code, out, err = run_cli(
        capsys, "density", "--group", "Q8", "--set", "{0}", "--system", "[g1]"
    )
    assert code == 2
    assert "parse error" in err


def test_exit_code_cap(capsys):
    code, out, err = run_cli(
        capsys, "density", "--group", "Z2097152", "--set", "{0}", "--system", "[g1]"
    )
    assert code == 3
    assert "resource cap" in err

    code2, _, err2 = run_cli(
        capsys,
        "density",
        "--group",
        "Z64",
        "--set",
        "{0}",
        "--system",
        "[g1; g2; g3; g4]",
        "--max-work",
        "1000",
    )
    assert code2 == 3
    # the hint names the CLI verb, with the library function beside it
    assert err2 == (
        "resource cap: predicted work 67108864 exceeds budget 1000; raise the budget or use "
        "the `estimate` verb (`estimate_density` in the library) for a Monte Carlo estimate\n"
    )


@pytest.fixture
def digit_limit():
    """Python's default limit of 4300 digits for writing an integer."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [
        # one sumset pass per fold: this ran past a 30 s timeout
        ["--random", "3", "--r", "3000000"],
        # the report could not write 6^100001 (exit 2, "Exceeds the limit")
        ["--set-a", "{0}", "--set-b", "{0,1}", "--r", "100000"],
        # 6^5526 has 4301 digits
        ["--set-a", "{0}", "--set-b", "{0,1}", "--r", "5525"],
        # past what a float holds
        ["--set-a", "{0}", "--set-b", "{0,1}", "--r", "9" * 400],
    ],
)
def test_plunnecke_ruzsa_refuses_denominators_past_the_digit_limit(capsys, digit_limit, argv):
    code, out, err = run_cli(capsys, "check", "--plunnecke-ruzsa", "--group", "Z6", *argv)
    assert code == 3 and out == ""
    assert err == (
        "resource cap: the exact denominator 6^(r+s) has more than 4300 digits, "
        "more than Python writes; lower --r or --s\n"
    )


def test_plunnecke_ruzsa_writes_a_denominator_at_the_digit_limit(capsys, digit_limit):
    # 6^5525 has 4300 digits; A + B = {0, 1} and 5524B - B = G
    argv = ["--group", "Z6", "--set-a", "{0}", "--set-b", "{0,1}", "--r", "5524"]
    code, out, err = run_cli(capsys, "check", "--plunnecke-ruzsa", *argv)
    assert code == 0 and err == ""
    lhs = json.loads(out)["lhs"]
    assert Fraction(int(lhs["num"]), int(lhs["den"])) == Fraction(2**5525 - 6, 6**5525)


@pytest.mark.parametrize("arity", [3000, 99999])
def test_cap_on_huge_predicted_work_exits_3(capsys, arity):
    # 5^arity has 2 097 and 69 897 digits: the message writes the power,
    # and the larger one is past what Python converts to a string
    code, out, err = run_cli(
        capsys, "density", "--group", "Z5", "--set", "{1}", "--system", f"[g{arity}]",
        "--max-work", "100000000000000000000000000",
    )
    assert code == 3 and out == ""
    assert f"predicted work 5^{arity} * 1 exceeds budget 100000000000000000000000000" in err


def test_exit_code_usage(capsys):
    code = main(["density", "--group", "Z4"])
    capsys.readouterr()
    assert code == 2
    code2 = main(["nonsense"])
    capsys.readouterr()
    assert code2 == 2


def test_subset_file_input(capsys, tmp_path):
    subset_file = tmp_path / "a.subset"
    subset_file.write_text("# two elements\n0\n2\n")
    code, report = run_json(
        capsys,
        "density",
        "--group",
        "Z4",
        "--set-file",
        str(subset_file),
        "--system",
        "[g1]",
    )
    assert code == 0
    assert report["value"]["num"] == 1 and report["value"]["den"] == 2


_OUTSIDE_BOX = "error: point outside the unit box"


class _File(str):
    """An argv entry that the test writes to a file and replaces by its path."""


class _TmpPath(str):
    """An argv entry that the test replaces by this path under its tmp_path."""


# the folds are refused even where every instance would be vacuous
_PR_EMPTY_A = ["check", "--plunnecke-ruzsa", "--group", "Z5", "--set-a", "{}", "--set-b", "{0}"]


def _half_point(kind):
    """argv of a region check of the point (1/2, 1/2)."""
    return ["check", kind, "--x", "1/2", "--y", "1/2"]


def _energy_of_file(group, text):
    return ["energy", "--group", group, "--set-file", _File(text)]


_USAGE_ERRORS = [
    (["verify", "homdensity", "--group", "Z1", "--k", "2"], "admitted M"),
    (["verify", "homdensity", "--group", "Z2", "--k", "2", "--pairs", "3"], "admitted M"),
    (["check", "--kneser", "--exhaustive"], "missing --group"),
    (["verify", "pinpoint", "--k", "2", "--threads", "0"], "--threads"),
    (["density", "--group", "Z4", "--set", "{0}", "--system", "[g1]", "--threads", "-2"], "--threads"),
    (["check", "--region-graph", "--x", "2/3", "--y", "5"], _OUTSIDE_BOX),
    (["check", "--region-graph", "--x", "1/3", "--y", "-1"], _OUTSIDE_BOX),
    (["check", "--region-energy", "--x", "2/3", "--y", "5"], _OUTSIDE_BOX),
    (["check", "--region-energy", "--x", "1/3", "--y", "-1"], _OUTSIDE_BOX),
    (["check", "--region-graph", "--y", "1/2"], "missing --x"),
    (["check", "--region-energy", "--x", "1/2"], "missing --y"),
    (["check", "--energy-bound", "--group", "Z8", "--random", "-3"], "--random"),
    (
        ["check", "--kneser", "--group", "Z4", "--exhaustive", "--random", "5"],
        "not allowed with argument --exhaustive",
    ),
    (_energy_of_file("Z3xZ2", "[[1.7, 0], [true, 1]]"), "parse error: JSON residues"),
    (_energy_of_file("Z3xZ2", "[[0, 0], [true, 1]]"), "parse error: JSON residues"),
    (_energy_of_file("Z3xZ2", "[1, 2]"), "parse error: JSON residues"),
    (_energy_of_file("Z3xZ2", "[[0, 0]"), "parse error: malformed JSON"),
    (_energy_of_file("Z16", "# residues\n0\n1_0\n"), "malformed residue line (line 3, column 1)"),
    (_energy_of_file("Z16", "0\n\u0661\n"), "malformed residue line (line 2, column 1)"),
    (_energy_of_file("Z16", "0\n1.0\n"), "malformed residue line (line 2, column 1)"),
    (_energy_of_file("Z16", "0 # a, b\n1,2\n"), "element has 2 residues, group has rank 1 (line 2"),
    (_PR_EMPTY_A + ["--r", "-1", "--s", "0"], "error: fold counts must be nonnegative"),
    (_PR_EMPTY_A + ["--r", "0", "--s", "0"], "error: need r + s >= 1"),
    # L(1) has no dilate, so B_1 of the witness is not pinned to {1} x H
    (["witness", "--k", "1", "--n", "3"], "error: k must be >= 2"),
    (["verify", "witness", "--k", "1", "--n", "3"], "error: k must be >= 2"),
    # counts refuse negatives instead of checking nothing
    (["verify", "homdensity", "--group", "Z9xZ2", "--k", "2", "--pairs", "-3"], "--pairs"),
    (["verify", "bollobas", "--t-max", "-4"], "--t-max"),
    (["verify", "delta-claims", "--t-max", "-1"], "--t-max"),
    (["density", "--group", "Z4", "--set", "{0}", "--system", "[g1]", "--max-work", "-1"], "--max-work"),
    # --max-work is offered only by the verbs that read it
    (["energy", "--group", "Z4", "--set", "{0}", "--max-work", "5"], "unrecognized arguments: --max-work"),
    # seeds, slice moduli and k are checked by the parser
    (["check", "--kneser", "--group", "Z4", "--random", "3", "--seed", "-1"], "--seed"),
    (["estimate", "--group", "Z4", "--set", "{0}", "--system", "[g1]", "--samples", "10", "--seed", "-1"], "--seed"),
    (["verify", "homdensity", "--group", "Z9xZ2", "--k", "2", "--seed", "-1"], "--seed"),
    (["witness", "--k", "2", "--n", "3,x"], "argument --n: invalid int list: '3,x'"),
    (["verify", "witness", "--k", "2", "--n", "3,x"], "argument --n: invalid int list: '3,x'"),
    (["reduce", "--poly", "x1", "--k", "0"], "argument --k: must be at least 1, got 0"),
    # Philox keys take 128 bits
    (["check", "--kneser", "--group", "Z4", "--random", "3", "--seed", str(1 << 128)], "--seed: must be at most"),
    (["estimate", "--group", "Z4", "--set", "{0}", "--system", "[g1]", "--samples", "10", "--seed", str(1 << 128)], "--seed: must be at most"),
    (["verify", "homdensity", "--group", "Z9xZ2", "--k", "2", "--seed", str(1 << 128)], "--seed: must be at most"),
    # a subset is given inline or by file, never both
    (["energy", "--group", "Z4", "--set", "{0,2}", "--set-file", _File("1\n")], "argument --set-file: not allowed with argument --set"),
    # a report that cannot be written is an error, not a failed check
    (["energy", "--group", "Z4", "--set", "{0}", "--out", _TmpPath("missing/r.json")], "error: [Errno 2] No such file or directory"),
    (["energy", "--group", "Z4", "--set", "{0}", "--out", _TmpPath(".")], "error: [Errno 21] Is a directory"),
    (["check", "--kneser", "--group", "Z4", "--exhaustive", "--random", "0"], "not allowed with argument --exhaustive"),
    (_half_point("--region-graph") + ["--random", "5"], "--random is not read by --region-graph"),
    (_half_point("--region-graph") + ["--random", "0"], "--random is not read by --region-graph"),
    (_half_point("--region-energy") + ["--group", "Z4"], "--group is not read by --region-energy"),
    (_half_point("--region-graph") + ["--exhaustive"], "--exhaustive is not read by --region-graph"),
    (_half_point("--region-energy") + ["--set", "{0}"], "--set is not read by --region-energy"),
    (_half_point("--region-graph") + ["--set-a-file", "a.txt"], "--set-a-file is not read by --region-graph"),
    (_half_point("--region-energy") + ["--set-b", "{1}"], "--set-b is not read by --region-energy"),
    (["check", "--kneser", "--group", "Z4", "--random", "2", "--x", "1/2"], "--x is not read by --kneser"),
    (["check", "--energy-bound", "--group", "Z4", "--set", "{0}", "--y", "0"], "--y is not read by --energy-bound"),
    # a sweep reads no subset, only a random sweep the seed, only
    # Plunnecke-Ruzsa the fold counts and one instance its kind's subsets
    (["check", "--kneser", "--group", "Z4", "--random", "3", "--set-a", "{0}", "--set-b", "{1}", "--r", "5"], "--set-a is not read by --kneser --random"),
    (["check", "--energy-bound", "--group", "Z4", "--random", "0", "--set", "{}"], "--set is not read by --energy-bound --random"),
    (["check", "--energy-doubling", "--group", "Z4", "--exhaustive", "--set-file", "a.txt"], "--set-file is not read by --energy-doubling --exhaustive"),
    (["check", "--kneser", "--group", "Z4", "--exhaustive", "--seed", "3"], "--seed is not read by --kneser --exhaustive"),
    (["check", "--energy-bound", "--group", "Z4", "--set", "{0}", "--seed", "0"], "--seed is not read by --energy-bound"),
    (_half_point("--region-graph") + ["--seed", "1"], "--seed is not read by --region-graph"),
    (["check", "--kneser", "--group", "Z4", "--random", "3", "--r", "2"], "--r is not read by --kneser --random"),
    (["check", "--energy-doubling", "--group", "Z4", "--set", "{0}", "--s", "1"], "--s is not read by --energy-doubling"),
    (_half_point("--region-energy") + ["--r", "1"], "--r is not read by --region-energy"),
    (["check", "--kneser", "--group", "Z4", "--set", "{0}", "--set-a", "{0}", "--set-b", "{1}"], "--set is not read by --kneser"),
    (["check", "--energy-bound", "--group", "Z4", "--set", "{0}", "--set-b-file", "b.txt"], "--set-b-file is not read by --energy-bound"),
    # a form's coefficient vector is dense, so variable indices are bounded
    (["density", "--group", "Z4", "--set", "{0}", "--system", "[g99999999999]"], "parse error: variable indices stop at 1048576 (line 1, column 3)"),
]

# Runs `cli.main` on each argv of the JSON list on stdin and writes one
# [code, stdout, stderr] per argv as JSON; an exception's traceback goes to
# its argv's stderr, so every argv runs.
_USAGE_CHILD = """
import contextlib, io, json, sys, traceback
from addforms import cli
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
    runs.append([code, out.getvalue(), err.getvalue()])
json.dump(runs, sys.stdout)
"""


def _child_env():
    path = [_SRC, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _resolved(argv, root):
    """argv with each _File written under the directory `root` and replaced
    by its path, and each _TmpPath replaced by its path under `root`."""
    root.mkdir()
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, _File):
            (root / f"{i}.subset").write_text(arg)
            argv[i] = str(root / f"{i}.subset")
        elif isinstance(arg, _TmpPath):
            argv[i] = str(root / arg)
    return argv


@pytest.fixture(scope="module")
def usage_error_runs(tmp_path_factory):
    """(code, stdout, stderr) of every argv of _USAGE_ERRORS, in order."""
    root = tmp_path_factory.mktemp("usage")
    argvs = [_resolved(argv, root / str(n)) for n, (argv, _) in enumerate(_USAGE_ERRORS)]
    # one child process with a timeout, so a hang fails the tests instead of the run
    proc = subprocess.run(
        [sys.executable, "-c", _USAGE_CHILD],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS)
def test_usage_errors_exit_2_without_traceback(usage_error_runs, argv, message):
    code, out, err = usage_error_runs[_USAGE_ERRORS.index((argv, message))]
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("n", [3, len(_USAGE_ERRORS) - 1])
def test_usage_errors_exit_2_from_a_fresh_process(tmp_path, n):
    argv, message = _USAGE_ERRORS[n]
    proc = subprocess.run(
        [sys.executable, "-m", "addforms", *_resolved(argv, tmp_path / "argv")],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# numpy's allocation failures carry a message, Python's often none
@pytest.mark.parametrize(
    "error, message",
    [(MemoryError(), "out of memory"), (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB")],
)
def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch, error, message):
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_density", exhausted)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # reads the patched verb
    code, out, err = run_cli(capsys, "density", "--group", "Z4", "--set", "{0}", "--system", "[g1]")
    assert (code, out, err) == (3, "", f"resource cap: {message}\n")


# sha256 of the reports of the benchmark's sweeps, recorded from the
# per-subset sweep that the batched one replaced.
_SWEEP_DIGESTS = {
    ("energy-bound", "Z2xZ2xZ2xZ2", "--exhaustive"): "481ec58cb0d417b6571f0669b1e2150f3d2c2c76d12ce00e3c4a5d6b4d589772",
    ("energy-bound", "Z12", "--exhaustive"): "27b33cc7294cc3203813b9768665141fb51a27408fb6de0e00b679844af351d4",
    ("energy-doubling", "Z10", "--exhaustive"): "ec161972c7302c53e5f58ecdfb01cdb258877e5ad7f815830206e2ea58f44950",
    ("energy-doubling", "Z3xZ3", "--exhaustive"): "098cd5a3ed5820f7087c512317c7afe9150e28f7b74994afada887954fdd6e65",
    ("kneser", "Z6", "--exhaustive"): "8dd9789f375bfdab37cc2e4e3a3b6db3f82fa59fafbc3654e2585bf15f9714c5",
    ("plunnecke-ruzsa", "Z5", "--exhaustive --r 2 --s 1"): "bc2ba1467c0d59aed1be06211c5232f50e0c560d46ca2fb672d0404696cdb141",
    ("energy-bound", "Z256", "--random 2000 --seed 101"): "2b6771cfd20fe20c84169e1adc866b0e842b3e3a1e0276bac10e41df7c6e731b",
    ("energy-bound", "Z16xZ16", "--random 2000 --seed 102"): "2b6771cfd20fe20c84169e1adc866b0e842b3e3a1e0276bac10e41df7c6e731b",
    ("energy-doubling", "Z128", "--random 3000 --seed 103"): "8e7c49710446b468c29bb8561ba2d0847da2877e558a879b9b56e47e5280e82e",
    ("kneser", "Z64", "--random 4000 --seed 104"): "87ae2e34b84d66b766b430fc272d44b4bdae3274b73990852bfe8c8be6c0e4a3",
    ("plunnecke-ruzsa", "Z100", "--random 1000 --seed 105 --r 2 --s 2"): "c74ef6fdfaa35d60b65312e1bed6b07c27d4c1c81f12ee4d2e6cc78e5f7a6144",
}


@pytest.mark.parametrize(("kind", "group", "flags"), list(_SWEEP_DIGESTS))
def test_sweep_reports_pinned(capsys, kind, group, flags):
    code, out, _ = run_cli(capsys, "check", f"--{kind}", "--group", group, *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SWEEP_DIGESTS[kind, group, flags]


def _every_row_violates(monkeypatch, name):
    # every left-hand side is below 2, so subtracting 2 makes each negative,
    # in the kind's `*_rows` numerators and in its `*_masks` blocks
    masks = name.replace("_rows", "_masks")
    slack, blocks = getattr(bounds, name), getattr(bounds, masks)

    def violating(group, *rows):
        numerators, denominator = slack(group, *rows)
        return numerators - 2 * denominator, denominator

    def violating_blocks(group, *args):
        for numerators, denominator in blocks(group, *args):
            yield numerators - 2 * denominator, denominator

    monkeypatch.setattr(bounds, name, violating)
    monkeypatch.setattr(bounds, masks, violating_blocks)


@pytest.mark.parametrize(
    ("argv", "name", "first"),
    [
        (["--energy-bound", "--group", "Z6", "--exhaustive"], "energy_bound_rows",
         [{"A": []}, {"A": [[0]]}, {"A": [[1]]}, {"A": [[0], [1]]}]),
        (["--kneser", "--group", "Z3", "--exhaustive"], "kneser_rows",
         [{"A": [], "B": []}, {"A": [], "B": [[0]]}, {"A": [], "B": [[1]]}]),
        (["--plunnecke-ruzsa", "--group", "Z12", "--random", "25"], "plunnecke_ruzsa_rows", []),
    ],
)
def test_sweep_counts_every_violation(capsys, monkeypatch, argv, name, first):
    _every_row_violates(monkeypatch, name)
    code, report = run_json(capsys, "check", *argv)
    assert code == 1
    assert report["violations"] == report["checked"] > cli._WITNESS_LIMIT
    assert len(report["witnesses"]) == cli._WITNESS_LIMIT
    assert [w["instance"] for w in report["witnesses"][: len(first)]] == first


def test_batches_draw_the_per_subset_instances(monkeypatch):
    monkeypatch.setattr(abelian, "batch_rows", lambda group: 3)
    group = FiniteAbelianGroup([2, 3])
    gen = np.random.Generator(np.random.Philox(key=9))
    singles = np.array([gen.random(group.order) < 0.5 for _ in range(14)])
    batches = list(cli._random_batches(group, 7, 9, pairwise=True))
    assert [len(a) for a, _ in batches] == [3, 3, 1]
    assert np.array_equal(np.concatenate([a for a, _ in batches]), singles[0::2])
    assert np.array_equal(np.concatenate([b for _, b in batches]), singles[1::2])
    (ones,) = zip(*cli._random_batches(group, 7, 9, pairwise=False))
    assert np.array_equal(np.concatenate(ones), singles[:7])

    # an exhaustive sweep's instances, numbered across blocks of 3: every
    # subset in mask order, or every pair A-major
    masks = [[i >> j & 1 == 1 for j in range(3)] for i in range(8)]
    for pairwise, total in ((False, 8), (True, 64)):
        numbered = ((np.arange(k, min(k + 3, total)), 1) for k in range(0, total, 3))
        blocks = list(cli._exhaustive_blocks(3, pairwise, numbered))
        assert [len(n) for n, _, _ in blocks] == [3] * (total // 3) + [total % 3]
        instances = [rows(i).tolist() for n, _, rows in blocks for i in range(len(n))]
        if pairwise:
            assert instances == [[a, b] for a in masks for b in masks]
        else:
            assert instances == [[m] for m in masks]


@pytest.mark.parametrize("seed", [0, 9, 2**31 - 1])
@pytest.mark.parametrize("moduli, count", [((1,), 5), ((2, 3), 7), ((256,), 200), ((16, 16), 90)])
def test_random_batches_draw_the_bits_of_random_below_one_half(seed, moduli, count):
    group = FiniteAbelianGroup(moduli)
    for pairwise in (False, True):
        gen = np.random.Generator(np.random.Philox(key=seed))
        want = gen.random((count * (1 + pairwise), group.order)) < 0.5
        batches = list(cli._random_batches(group, count, seed, pairwise))
        sides = [np.concatenate(side) for side in zip(*batches)]
        assert np.array_equal(sides[0], want[0::2] if pairwise else want)
        if pairwise:
            assert np.array_equal(sides[1], want[1::2])


@pytest.mark.parametrize("order", range(1, 64))
def test_mask_rows_unpack_the_bits_of_each_mask(order):
    rng = np.random.Generator(np.random.Philox(key=order))
    masks = np.append(rng.integers(0, 1 << order, size=40, dtype=np.int64), [0, (1 << order) - 1])
    got = cli._mask_rows(masks, order)
    assert got.dtype == bool and got.shape == (len(masks), order)
    assert np.array_equal(got, (masks[:, None] >> np.arange(order)) & 1 == 1)


def test_random_zero_is_an_empty_sweep(capsys):
    # `--random 0` sweeps no instance; it is not read as "no --random", so
    # a subset beside it is refused as beside any sweep
    code, report = run_json(capsys, "check", "--kneser", "--group", "Z4", "--random", "0")
    assert code == 0
    assert (report["checked"], report["violations"], report["witnesses"]) == (0, 0, [])
    code, out, err = run_cli(capsys, "check", "--energy-bound", "--group", "Z4", "--random", "0", "--set", "{}")
    assert (code, out) == (2, "") and "--set is not read by --energy-bound --random" in err


def test_energy_bound_sweep_beyond_int64(capsys):
    code, report = run_json(
        capsys, "check", "--energy-bound", "--group", "Z65536", "--random", "2", "--seed", "4"
    )
    assert code == 0
    assert (report["checked"], report["violations"]) == (2, 0)


# sha256 of the reports of the benchmark's `verify witness` tasks, (2; 7,7),
# and its three `verify homdensity` tasks at fixed seeds, recorded from the
# per-g verifiers that the batched ones replaced.
_VERIFY_DIGESTS = {
    "witness --k 2 --n 5,5": "fb57f35e9f76270c00a9b8d209c8b1f41d136bbe3b316b7347330d54f2607eb0",
    "witness --k 2 --n 4,6": "6796f0d1e04cee4bd87f9a193e1894fc1cb301d5c1edbe4cfe4a415fbae4c506",
    "witness --k 3 --n 2,2,2": "8c2566acd20903f4fa8f22c4a73b62c7a7fd91077b238c417d3e222a4d0211b6",
    "witness --k 2 --n 7,7": "53e689047f0b7bdd4950143771256b788b10e765640705099eda49e3c3c21338",
    "homdensity --group Z9xZ2 --k 2 --pairs 30 --seed 1": "0a4b86172fb4d7223661d3cfad04fe5f8b6a56a3047d55747daf7a00b0165d1b",
    "homdensity --group Z16xZ3 --k 2 --pairs 30 --seed 2": "920c8b34176a27f749243963b448415da3eda7268d9818421e709d92addfe012",
    "homdensity --group Z9xZ2 --k 3 --pairs 30 --seed 3": "715add1a5c91d2e0b4cba3d2a7e6df72c510ed0616a739b445c545db43e5f9df",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", list(_VERIFY_DIGESTS))
def test_verify_reports_pinned(capsys, argv, threads):
    code, out, _ = run_cli(capsys, "verify", *argv.split(), "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[argv]


# (exit code, sha256) of the bound verifiers and of one-instance checks,
# recorded from the generic piecewise class and the per-kind report builders
# that the plain branch functions and `_check_single` replaced.
_BOUND_DIGESTS = {
    "verify bollobas --t-max 100": (0, "e8005efcd17769dbb8b5f0e62123201bb5989381c4fe1277f13a1ca7e141fbd8"),
    "verify delta-claims": (0, "90b2a9de8f698cc2fbdb1d5cc0416656573045b4884d6d6e2898ca195cea74b9"),
    "verify delta-claims --step 1/500 --t-max 12": (0, "afd6615671d5d7ac3d830467b2b9191fe7627906122a6801c450f289e6b69194"),
    "check --region-graph --x 1/2 --y 1/4": (0, "527cc940553741856ef8106d416f68977cb41704e2b3f160d5fa4db155de3e55"),
    "check --region-graph --x 2/3 --y 1/10": (1, "2d2f91750bf195d00f0f89d6bba9761684a234458d241ed50e982c8bf6542df6"),
    "check --region-energy --x 1/3 --y 1/27": (0, "463d6186b1b05a5bc725e26009a6838e7df57f7aabbd5660bb9f2befd580e014"),
    "check --region-energy --x 2/5 --y 1/10": (1, "8d3a09aa256285f32b4b63ed8bc8eeb98467eca88dc53fa8897c91d432e42515"),
    "check --kneser --group Z6 --set-a {0,2} --set-b {0,3}": (0, "14774877c4cad11f8d58756d0735ca030ca19890ec0d8badf26d3da62600bc29"),
    "check --kneser --group Z6 --set-a {0,1} --set-b {}": (0, "d31a4ad5cdb07812382474190695fbbc38950541f940b656a3a1dc73312528dc"),
    "check --energy-bound --group Z7 --set {0,1,3}": (0, "21a4984e8d714de55003966d8331c13a5005db7dac6838d51a9e51aff4c39530"),
    "check --energy-bound --group Z12 --set {0,4,8}": (0, "84cc52de7ddd148e3f08e582b3c138906ad61bc28fe80df33b5df9a759709cbf"),
}


@pytest.mark.parametrize("argv", list(_BOUND_DIGESTS))
def test_bound_reports_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _BOUND_DIGESTS[argv]


def test_verify_homdensity_counts_M_only_in_its_solution_list(capsys, monkeypatch):
    # g is drawn from M's solutions, so t(M) at g is 1 for every j and is not
    # counted again.  All (A, g) pairs share one frontier per j: one
    # solve_rows call lists B_j for all of them, and one count_rows call
    # each counts E_j and T_j.  Only the calls from `reduction` are compared.
    calls = {"count_rows": [], "solve_rows": []}  # (system, called from reduction)

    def spy(name):
        real = getattr(linform, name)

        def call(system, *args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == "addforms.linform":
                frame = frame.f_back
            calls[name].append((system, frame.f_globals["__name__"] == "addforms.reduction"))
            return real(system, *args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(linform, name, spy(name))
    argv = "homdensity --group Z9xZ2 --k 3 --pairs 30 --seed 3"
    code, out, _ = run_cli(capsys, "verify", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[argv]
    assert reduction.build_M(3) not in [system for system, _ in calls["count_rows"]]
    counted = [system for system, ours in calls["count_rows"] if ours]
    listed = [system for system, ours in calls["solve_rows"] if ours]
    assert len(counted) == 3 * 2
    assert counted == [build(3, j) for j in (1, 2, 3) for build in (reduction.build_E, reduction.build_T)]
    assert listed == [reduction.build_V(3, j) for j in (1, 2, 3)]


def test_verify_homdensity_of_no_pairs(capsys):
    code, report = run_json(capsys, "verify", "homdensity", "--group", "Z9xZ2", "--k", "2", "--pairs", "0")
    assert code == 0
    assert report["pairs_checked"] == 0 and report["vacuous"] == 0 and report["ok"]
    assert report["sample"] == [] and report["mismatches"] == []


def test_witness_budget_is_per_prefix(capsys):
    # M over Z25xZ5xZ5 predicts 225^2 * 7 = 354375; each good g then pins a
    # prefix of V_j, which predicts 225 * 12 for every row of the batch
    argv = ["verify", "witness", "--k", "2", "--n", "5,5", "--max-work"]
    code, out, _ = run_cli(capsys, *argv, "354375")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS["witness --k 2 --n 5,5"]
    code, out, err = run_cli(capsys, *argv, "354374")
    assert code == 3 and out == ""
    assert "predicted work 354375 exceeds budget 354374" in err


# a mix of reports, a violation (exit 1), usage errors and a library error (exit 2)
_MIXED_ARGVS = [
    ["density", "--group", "Z4", "--set", "{0,1}", "--system", "[g1; g2; g1+g2]"],
    ["nonsense"],
    ["energy", "--group", "Z6", "--set", "{0,1,3}"],
    ["verify", "pinpoint", "--k", "2", "--threads", "0"],
    ["check", "--kneser", "--group", "Z4", "--exhaustive", "--random", "5"],
    ["check", "--energy-bound", "--group", "Z6", "--exhaustive"],
    ["density", "--group", "Z4"],
    ["verify", "homdensity", "--group", "Z2", "--k", "2", "--pairs", "1"],
    ["verify", "witness", "--k", "2", "--n", "2,2"],
    ["check", "--region-graph", "--x", "1", "--y", "1/2"],
    ["density", "--group", "Z4", "--set", "{0,1}", "--system", "[g1; g2; g1+g2]"],
]


def test_one_parser_per_process_matches_fresh_parsers(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in _MIXED_ARGVS]
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", build)
    fresh = [run_cli(capsys, *argv) for argv in _MIXED_ARGVS]
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 1, 2}


def test_parser_is_not_built_at_import():
    probe = "import addforms.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.stdout.strip() == "0", proc.stderr


def _random_set(rng, moduli, density):
    order = int(np.prod(moduli))
    return np.sort(rng.choice(order, round(order * density), replace=False))


def _coset_union(rng, moduli, density, period):
    """A union of cosets of {x : x_t = 0 mod period_t}, as flat indices."""
    chosen = np.zeros(int(np.prod(period)), dtype=bool)
    chosen[_random_set(rng, period, density)] = True
    residues = np.unravel_index(np.arange(int(np.prod(moduli))), moduli)
    classes = np.ravel_multi_index(tuple(r % p for r, p in zip(residues, period)), period)
    return np.flatnonzero(chosen[classes])


# verb, moduli, and per subset option a density (random set) or a (density,
# period) coset union; the sumsets are the benchmark's `kernels` sumsets
_REPORT_CASES = {
    "sumset Z4096": ("sumset", (4096,), {"set-a": 0.05, "set-b": 0.05}),
    "sumset Z64xZ64": ("sumset", (64, 64), {"set-a": 0.25, "set-b": 0.01}),
    "sumset Z2^12": ("sumset", (2,) * 12, {"set-a": 0.10, "set-b": 0.10}),
    "sumset Z16384": ("sumset", (16384,), {"set-a": 0.01, "set-b": 0.25}),
    "sumset Z256xZ256": ("sumset", (256, 256), {"set-a": 0.10, "set-b": 0.01}),
    "sumset Z65536": ("sumset", (65536,), {"set-a": 0.10, "set-b": 0.01}),
    "stabilizer Z4096": ("stabilizer", (4096,), {"set": (0.50, (1024,))}),
    "stabilizer Z2^12": ("stabilizer", (2,) * 12, {"set": (0.25, (2,) * 10 + (1, 1))}),
    "stabilizer Z256xZ256": ("stabilizer", (256, 256), {"set": (0.05, (128, 256))}),
    "stabilizer Z12": ("stabilizer", (12,), {"set": (0.5, (4,))}),
    "energy --fourier Z64xZ64": ("energy --fourier", (64, 64), {"set": 0.25}),
    "energy Z2^12": ("energy", (2,) * 12, {"set": 0.10}),
    "energy --fourier Z2^12": ("energy --fourier", (2,) * 12, {"set": 0.25}),
    "doubling Z2^12": ("doubling", (2,) * 12, {"set": 0.25}),
    "sumset Z6 empty": ("sumset", (6,), {"set-a": 0.0, "set-b": 0.5}),
}

# sha256 of the reports above (seed 7), recorded from the `json.dumps`
# writer and per-line subset reader that `dump_json` and
# `parse_subset_file` replaced; the Z2^12 energy and doubling reports from
# the certified FFT counter, before the Walsh-Hadamard butterflies.
_REPORT_DIGESTS = {
    "sumset Z4096": "46b52e2378461d44c66f4975a388a2c5bb7f32181d0b0ee3ed97a5b2b9cd9a56",
    "sumset Z64xZ64": "b17a3acb12c4f4e299186d7d2435f6e47a4ec431b9548d8760203aa4217d5257",
    "sumset Z2^12": "6a22b32677886d7314140d00cdb64e6d6aa3b34afb6b83ffe6766287e7a84d3f",
    "sumset Z16384": "324167d7b1e5be987536316682e6f479e4831db8c007fd4ddc9e156a15371c60",
    "sumset Z256xZ256": "916fbaaf1c23fcab27df29666f146c8785a72d73b67bfc3a75df2571da698577",
    "sumset Z65536": "3953a5f26527654a5d1262ebfd48519ba94210368413d0d083c1b95b9aadccaa",
    "stabilizer Z4096": "19b310b44a1e3bdff5380869971707acc67809aaf845ed87f44d62ea2f7bef53",
    "stabilizer Z2^12": "452fe0611854cf5a0a3a1b61e077ba342a9b9c5518010ccc7195d6b40f9ca871",
    "stabilizer Z256xZ256": "1aa9dd3c76e455d56590a3ef5b83420a2752d8c27aac68fb3b7a134ef7a6c45d",
    "stabilizer Z12": "2beda844857a0780f13c9bd56c72976e23bc9455e084adf3c1277d5e0afd4dbc",
    "energy --fourier Z64xZ64": "26ecef9390076f10560c34fc9963f352e123a3031d8d07a391d573899441347c",
    "energy Z2^12": "8ee7425f9f2ca91b15f0b09052ef07d482c14702a5c0cd025bacec9d0e22562c",
    "energy --fourier Z2^12": "c96c31e657dfa5676916c51ba9b2b257e9031bd4e736f2fe4b0f1cb89af66384",
    "doubling Z2^12": "76eb0861e35eb5fea6f607183135eadc8f40b2e505499a59c1dbf4e1da81aa9d",
    "sumset Z6 empty": "5064bc0d0ef659eabf6aa0e62d3bf8a6fa68cb61b185e887ffcca84e4f6e9d3e",
}


@pytest.mark.parametrize("name", list(_REPORT_CASES))
def test_subset_reports_pinned(capsys, tmp_path, name):
    verb, moduli, sets = _REPORT_CASES[name]
    rng = np.random.default_rng(7)
    argv = [*verb.split(), "--group", "x".join(f"Z{n}" for n in moduli)]
    for option, spec in sets.items():
        idx = _random_set(rng, moduli, spec) if isinstance(spec, float) else _coset_union(rng, moduli, *spec)
        rows = np.stack(np.unravel_index(idx, moduli), 1).tolist()
        path = tmp_path / f"{option}.subset"
        path.write_text("# input\n" + "".join(", ".join(map(str, r)) + "\n" for r in rows))
        argv += [f"--{option}-file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == _REPORT_DIGESTS[name]


def test_witness_reports_and_file_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["witness", "--k", "2", "--n", "3,3"]
    code, with_file, _ = run_cli(capsys, *argv, "--subset-file", "w.subset")
    assert code == 0
    code, inline, _ = run_cli(capsys, *argv)
    assert code == 0
    texts = (with_file, Path("w.subset").read_text(), inline)
    assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == [
        "280c5d5e6a786653d4c99abc3981b58acf19cf28eb0f19451826d1d5a2750784",
        "4f6bfb60136f889d876ddb0e1409919fdc274f7bd7d625e7edaa6f7bca1bcea7",
        "90751d62debd59b356b3e7e49af245eb868f7ee6a3547512e25b478fe8c768ba",
    ]
