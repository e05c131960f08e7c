"""CLI subcommands, exit codes, and report shapes."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from quiverglue import homology
from quiverglue.bundled import data_path
from quiverglue.cli import main

DATA = data_path()
GOLDEN = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_algebra(capsys):
    code, out, _ = run(capsys, "check-algebra", str(DATA / "lambda.alg"))
    assert code == 0
    assert "dim 11" in out
    assert "paths 3 -> 2: 1" in out


def test_check_algebra_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field 101\nvertices 1\nnonsense\n")
    code, _, err = run(capsys, "check-algebra", str(bad))
    assert code == 3
    assert "line 3" in err


def test_module_with_fractional_entry_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mod"
    bad.write_text("module X over lambda_dprime\ndim 3 1\ndim 4 1\nmap a [[1.5]]\n")
    code, _, err = run(
        capsys,
        "ext",
        "--algebra", str(DATA / "lambda_dprime.alg"),
        "--source", str(bad),
        "--target", str(DATA / "ldp_S4.mod"),
        "--degree", "1",
    )
    assert code == 3
    assert "line 4" in err


def test_ext_command(capsys):
    code, out, _ = run(
        capsys,
        "ext",
        "--algebra", str(DATA / "lambda_dprime.alg"),
        "--source", str(DATA / "ldp_S3.mod"),
        "--target", str(DATA / "ldp_S4.mod"),
        "--degree", "1",
    )
    assert code == 0
    assert "dim Ext^1 = 1" in out


def test_check_tilting_pass_and_fail(tmp_path, capsys):
    # build the paper's 2-tilting module file on the fly
    from quiverglue.modcat import direct_sum, projective, simple
    from quiverglue.textio import parse_algebra, print_module

    algebra = parse_algebra((DATA / "lambda_dprime.alg").read_text(), name="lambda_dprime")
    t3 = direct_sum(
        algebra, [projective(algebra, "3"), projective(algebra, "4"), simple(algebra, "3")]
    )
    mod_file = tmp_path / "t3.mod"
    mod_file.write_text(print_module("T3", t3))
    code, out, _ = run(
        capsys, "check-tilting",
        "--algebra", str(DATA / "lambda_dprime.alg"), "--module", str(mod_file), "--n", "2",
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "check-tilting",
        "--algebra", str(DATA / "lambda_dprime.alg"), "--module", str(mod_file), "--n", "1",
    )
    assert code == 2 and "FAIL" in out


def test_check_cotilting(capsys, tmp_path):
    from quiverglue.modcat import direct_sum, projective
    from quiverglue.textio import parse_algebra, print_module

    algebra = parse_algebra((DATA / "lambda_dprime.alg").read_text(), name="lambda_dprime")
    t3 = direct_sum(algebra, [projective(algebra, v) for v in "345"])
    mod_file = tmp_path / "t3c.mod"
    mod_file.write_text(print_module("T3c", t3))
    code, out, _ = run(
        capsys, "check-cotilting",
        "--algebra", str(DATA / "lambda_dprime.alg"), "--module", str(mod_file), "--n", "2",
    )
    assert code == 0 and "PASS" in out


def test_recollement_command(capsys):
    code, out, _ = run(
        capsys, "recollement", "--algebra", str(DATA / "lambda.alg"), "--a-vertices", "1,2"
    )
    assert code == 0
    assert "exact j_lower_shriek: True" in out
    assert "exact i_upper_star: False" in out


def test_recollement_not_triangular(capsys):
    code, _, err = run(
        capsys, "recollement", "--algebra", str(DATA / "lambda.alg"), "--a-vertices", "3,4,5"
    )
    assert code == 4
    assert "crosses" in err


def test_verify_universe_ok(capsys):
    code, out, _ = run(
        capsys, "verify-universe",
        "--algebra", str(DATA / "lambda.alg"), "--universe", str(DATA / "lambda.univ"),
    )
    assert code == 0
    assert "15 pairwise non-isomorphic indecomposables" in out


def test_reproduce_both_examples(capsys):
    for example in ("5-1", "5-2"):
        code, out, _ = run(capsys, "reproduce", example)
        assert code == 0
        assert "matches the expected summands" in out
        assert "degree n2 = 2" in out


@pytest.mark.parametrize("prime", ["101", "32003"])
@pytest.mark.parametrize("example", ["5-1", "5-2"])
def test_reproduce_report_is_the_golden_one(capsys, monkeypatch, prime, example):
    # the committed reports in tests/data, byte for byte: no change may alter them
    monkeypatch.delenv("QUIVERGLUE_PRIME", raising=False)
    code, out, _ = run(capsys, "--prime", prime, "reproduce", example)
    assert code == 0
    assert out.encode() == (GOLDEN / f"reproduce_{example}.txt").read_bytes()


def test_cold_reproduce_imports_no_numpy_random(tmp_path):
    # the process entry, as a user runs it: the golden report, and no module pays for numpy.random
    env = {k: v for k, v in os.environ.items() if k not in ("QUIVERGLUE_PRIME", "QUIVERGLUE_SEED")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quiverglue.cli", "--prime", "101", "reproduce", "5-2"],
        cwd=tmp_path, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
    )
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "reproduce_5-2.txt").read_bytes()
    imports = [line for line in out.stderr.decode().splitlines() if line.startswith("import time:")]
    assert any(line.rstrip().endswith(" quiverglue.glue") for line in imports)
    assert not [line for line in imports if "numpy.random" in line]


def test_a_failing_certificate_is_a_verification_mismatch(capsys, monkeypatch):
    # Ext's complex route disagrees with its syzygy route, so the certificate raises RuntimeError
    monkeypatch.setattr(homology, "_ext_dim_from_complex", lambda m, n, i: 99)
    code, out, err = run(capsys, "reproduce", "5-2")
    assert code == 2
    assert "verification mismatch: Ext^" in err and "dimension mismatch" in err


def test_reproduce_at_a_large_prime(capsys):
    # no step of the decomposition scales with p
    code, out, _ = run(capsys, "--prime", "100000007", "reproduce", "5-2")
    assert code == 0
    assert "matches the expected summands" in out


def test_reproduce_corrupted_universe(tmp_path, capsys):
    corrupted = tmp_path / "data"
    shutil.copytree(DATA, corrupted)
    manifest = corrupted / "lambda.univ"
    lines = [
        line for line in manifest.read_text().splitlines() if "(S(1)|S(3))" not in line
    ]
    manifest.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "reproduce", "5-2", "--data-dir", str(corrupted))
    assert code == 2
    assert "(S(1)|S(3))" in out + err  # the diff names the missing member


def test_cotorsion_command(capsys, tmp_path):
    from quiverglue.modcat import direct_sum, projective, simple
    from quiverglue.textio import parse_algebra, print_module

    algebra = parse_algebra((DATA / "lambda_prime.alg").read_text(), name="lambda_prime")
    t1 = direct_sum(algebra, [projective(algebra, "1"), simple(algebra, "1")])
    mod_file = tmp_path / "t1.mod"
    mod_file.write_text(print_module("T1", t1))
    code, out, _ = run(
        capsys, "cotorsion",
        "--algebra", str(DATA / "lambda_prime.alg"), "--module", str(mod_file),
        "--n", "1", "--universe", str(DATA / "lambda_prime.univ"), "--kind", "cotilting",
    )
    assert code == 0
    assert "U: P(1) S(1) S(2)" in out
    assert "V: P(1) S(1)" in out


def test_glue_tilting_command(capsys, tmp_path):
    from quiverglue.bundled import load_workspace
    from quiverglue.textio import print_module

    ws = load_workspace()
    _, t1, _, t3, _, _ = ws.example_inputs("5-2")
    t1_file = tmp_path / "t1.mod"
    t1_file.write_text(print_module("T1", t1))
    t3_file = tmp_path / "t3.mod"
    t3_file.write_text(print_module("T3", t3))
    code, out, _ = run(
        capsys, "glue-tilting",
        "--algebra", str(DATA / "lambda.alg"), "--a-vertices", "1,2",
        "--t1", str(t1_file), "--n1", "1", "--t3", str(t3_file), "--n3", "2",
        "--universe-a", str(DATA / "lambda_prime.univ"),
        "--universe-c", str(DATA / "lambda_dprime.univ"),
        "--universe-b", str(DATA / "lambda.univ"),
    )
    assert code == 0
    assert "degree n2 = 2" in out
    assert "(S(1)|S(3))x1" in out


def test_seed_flag_parses_hex(capsys, monkeypatch):
    # the flag is inert: it still parses, and the report stays the golden one
    code, _, _ = run(capsys, "--seed", "0xC0FFEE", "check-algebra", str(DATA / "lambda.alg"))
    assert code == 0
    monkeypatch.delenv("QUIVERGLUE_PRIME", raising=False)
    code, out, _ = run(capsys, "--seed", "0x2", "reproduce", "5-2")
    assert code == 0
    assert out.encode() == (GOLDEN / "reproduce_5-2.txt").read_bytes()


def test_prime_too_large_is_a_precondition_failure(capsys):
    # residue products would overflow int64; the run must refuse, not miscompute
    code, _, err = run(capsys, "--prime", "4294967311", "reproduce", "5-2")
    assert code == 4
    assert "precondition failure" in err
