import os
import subprocess
import sys
from pathlib import Path

import pytest

from symprol.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run_cli(["catalog", "list"], capsys)
    assert code == 0
    assert "entry=D4_12" in out and "entry=p1" in out


def test_catalog_verify_all(capsys):
    code, out, _ = run_cli(["catalog", "verify"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("config: command=catalog")
    assert lines[-1].startswith("summary:")
    assert " 0 fail" in lines[-1]
    assert all("check=pass" in ln for ln in lines[1:-1])


def test_catalog_verify_single(capsys):
    code, out, _ = run_cli(["catalog", "verify", "D4_12", "--params", "eps=-1"], capsys)
    assert code == 0
    assert "entry=D4_12" in out and "verdict=Finite" in out
    code, out, _ = run_cli(["catalog", "verify", "p1"], capsys)
    assert code == 0
    assert "verdict=Infinite" in out


def test_catalog_bad_inputs(capsys):
    code, _, err = run_cli(["catalog", "verify", "no-such"], capsys)
    assert code == 2
    code, _, err = run_cli(["catalog", "verify", "D6_13", "--params", "a=-1"], capsys)
    assert code == 2


def test_exit_one_on_verification_failure(capsys, monkeypatch):
    # no shipped entry fails, so force a wrong expectation to drive the
    # failure path and the exit status
    from symprol import catalog
    monkeypatch.setattr(catalog.get("glP"), "expected_dim", 5)
    code, out, _ = run_cli(["catalog", "verify", "glP"], capsys)
    assert code == 1
    assert "FAIL" in out and "1 fail" in out


def test_determinism(capsys):
    _, out1, _ = run_cli(["catalog", "verify"], capsys)
    _, out2, _ = run_cli(["catalog", "verify"], capsys)
    assert out1 == out2


def test_prolong_and_finite_type(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("q1*p1\n")
    code, out, _ = run_cli(["prolong", "--gens", str(gens), "--kmax", "1"], capsys)
    assert code == 0 and "\ndims=1,0" in out and out.startswith("config:")

    gens.write_text("p1^2\n")
    code, out, _ = run_cli(["finite-type", "--gens", str(gens)], capsys)
    assert code == 0 and "verdict=Infinite" in out and "witness=" in out

    gens.write_text("p1^2\nq1^2\n")
    code, _, err = run_cli(["finite-type", "--gens", str(gens)], capsys)
    assert code == 2 and "not a subalgebra" in err

    gens.write_text("")
    code, _, err = run_cli(["finite-type", "--gens", str(gens)], capsys)
    assert code == 2


def test_prolong_negative_kmax(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("q1*p1\n")
    code, out, err = run_cli(["prolong", "--gens", str(gens), "--kmax", "-3"], capsys)
    assert code == 2
    assert "dims=" not in out
    assert err.startswith("error: ") and "kmax" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, text", [
    pytest.param("prolong", "1/0 * p1^2\n", id="gens-zero-denominator"),
    pytest.param("finite-type", "p1^2 + (1/0+i) * q1^2\n", id="gens-gaussian-zero-denominator"),
    pytest.param("fedosov", "dim 2\n[1,2] = 1/0 * e2\nomega(1,2) = 1\n",
                 id="algebra-zero-denominator"),
    pytest.param("fedosov", "dim 2\n[1,2] = 1 * e3\nomega(1,2) = 1\n",
                 id="basis-label-above-dim"),
    pytest.param("fedosov", "dim 2\n[1,2] = 1 * e2\nomega(1,3) = 1\n",
                 id="omega-index-above-dim"),
    pytest.param("fedosov", "dim 2\n[0,2] = 1 * e2\nomega(1,2) = 1\n",
                 id="bracket-index-zero"),
    pytest.param("fedosov", "dim 2\n[1,2] = 1 * e0\nomega(1,2) = 1\n",
                 id="basis-label-zero"),
    pytest.param("fedosov", "dim\n[1,2] = 1 * e2\nomega(1,2) = 1\n", id="dim-without-value"),
    pytest.param("fedosov", "dim 0\n", id="dim-zero"),
])
def test_malformed_input_exits_two(tmp_path, capsys, command, text):
    # a zero denominator, an index outside 1..dim or a dim line without a
    # positive value is bad input: never a traceback, never a silently
    # different algebra
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--algebra" if command == "fedosov" else "--gens"
    code, _, err = run_cli([command, flag, str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


S4_GENS = "p1^2 - p2^2\np1*p2\np1*q1 + p2*q2\np2*q1 - p1*q2\nq1^2 - q2^2\nq1*q2\n"
TORUS_GENS = "p1^2 + q1^2\np2^2 + q2^2\n"


@pytest.mark.parametrize("grid, token", [("abc", "abc"), ("1,,2", ""), ("1/0", "1/0"),
                                         ("1, 2 i, x", "x")])
@pytest.mark.parametrize("argv, gens", [
    pytest.param(["finite-type"], S4_GENS, id="finite-type-s4"),
    pytest.param(["finite-type"], TORUS_GENS, id="finite-type-torus"),
    pytest.param(["catalog", "verify", "s4"], None, id="catalog-verify-s4"),
])
def test_bad_witness_grid_exits_two(tmp_path, capsys, monkeypatch, grid, token, argv, gens):
    # the grid is read before any input is searched, so a bad value is
    # reported whether or not the search would have reached the grid
    monkeypatch.setenv("SYMPROL_WITNESS_GRID", grid)
    if gens is not None:
        path = tmp_path / "gens.txt"
        path.write_text(gens)
        argv = argv + ["--gens", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "verdict=" not in out
    assert err == f"error: SYMPROL_WITNESS_GRID: {token!r} is not a scalar\n"


@pytest.mark.parametrize("value", ["foo", "gmpy2"])
def test_backend_variable_is_ignored(value):
    # the package has one rational type and reads no SYMPROL_BACKEND; a
    # fresh interpreter is needed, because a switch read on import would act
    # before the command's error handling
    env = dict(os.environ, SYMPROL_BACKEND=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "symprol.cli", "finite-type", "--gens", "torus.gens"],
                          cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "finite_type_torus.out").read_text()
    assert proc.stderr == ""


def test_realize_commands(capsys):
    code, out, _ = run_cli(["realize", "thmK1", "--base", "sphere", "--k", "2"], capsys)
    assert code == 0
    assert "dim=7" in out and "jacobi=0" in out
    code, out, _ = run_cli(["realize", "thmK2", "--base", "conf",
                            "--xi", "W(1,1)+W(1,-1)"], capsys)
    assert code == 0 and "dim=6" in out
    code, _, err = run_cli(["realize", "thmK2", "--base", "conf", "--xi", "W(2,2)"], capsys)
    assert code == 2 and "conjugation-invariant" in err
    code, _, err = run_cli(["realize", "thmK1", "--base", "sphere", "--k", "0"], capsys)
    assert code == 2


def test_realize_has_no_truncation_option(capsys):
    # the models are exact polynomials; a degree cap is not an option
    with pytest.raises(SystemExit) as exc:
        main(["realize", "thmK1", "--base", "sphere", "--k", "2", "--trunc", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trunc 3" in capsys.readouterr().err


def test_fedosov_command(tmp_path, capsys):
    alg = tmp_path / "heis.alg"
    alg.write_text("dim 4\n[1,2] = 1 * e3\nomega(1,3) = 1\nomega(2,4) = 1\n")
    code, out, _ = run_cli(["fedosov", "--algebra", str(alg)], capsys)
    assert code == 0
    assert "ric_zero=True" in out and "nilpotent=True" in out

    aff = tmp_path / "aff.alg"
    aff.write_text("dim 2\n[1,2] = 1 * e2\nomega(1,2) = 1\n")
    code, out, _ = run_cli(["fedosov", "--algebra", str(aff), "--report", "full"], capsys)
    assert code == 0
    assert "ric(1,1) = 2/9" in out
    assert "product e1 e1 = -1 * e1" in out

    bad = tmp_path / "bad.alg"
    bad.write_text("dim 4\n[1,2] = 1 * e3\nomega(1,2) = 1\nomega(3,4) = 1\n")
    code, _, err = run_cli(["fedosov", "--algebra", str(bad)], capsys)
    assert code == 2 and "cocycle" in err


def test_ce_h1_command(capsys):
    code, out, _ = run_cli(["ce-h1", "--list"], capsys)
    assert code == 0 and "case=n2-p1w" in out
    code, out, _ = run_cli(["ce-h1", "--case", "n2-p1w"], capsys)
    assert code == 0 and "dim_h1=1" in out and "c(p2^2) = 1 * (p1*q2)" in out
    code, out, _ = run_cli(["ce-h1", "--case", "slw-p1w"], capsys)
    assert code == 0 and "dim_h1=0" in out
    code, _, err = run_cli(["ce-h1", "--case", "nope"], capsys)
    assert code == 2
