import json
import subprocess
import sys

import pytest

from phimod.cli import main
from phimod.modules import (
    InvariantViolation,
    NoCyclicVector,
    Nu,
    OracleDisagreement,
    build_family,
    module_to_record,
)
from phimod.scalars import PrimeContext


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weil_command(capsys):
    code, out, _ = run_cli(capsys, "weil", "--prime", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("label")]
    assert len(lines) == 5
    code, out, _ = run_cli(capsys, "weil", "--prime", "97")
    assert code == 0 and len(out.splitlines()) == 6


def test_weil_small_prime(capsys):
    code, _, err = run_cli(capsys, "weil", "--prime", "5")
    assert code == 1 and "p >= 7" in err


def test_classify_mu(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--prime", "7", "--epsilon", "0", "--family", "mu",
        "--params", "7,0", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["class"]["tag"] == "MuGeneric"
    assert rec["c"] == "-49/1"
    assert rec["wintenberger"] == "B"
    assert rec["geometric"] is True


def test_classify_nu(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--prime", "7", "--epsilon", "0", "--family", "nu",
        "--params", "49", "--format", "json",
    )
    rec = json.loads(out)
    assert code == 0 and rec["c"] == "50/1" and rec["wintenberger"] == "A"


def test_classify_degenerate_params(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--prime", "7", "--family", "mu", "--params", "1,-1"
    )
    assert code == 1 and "ab = -1" in err


def test_classify_module_file(tmp_path, capsys):
    D = build_family(Nu(0, 49), PrimeContext(7))
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_record(D)))
    code, out, _ = run_cli(capsys, "classify", "--prime", "7", "--module-file", str(path), "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["c"] == "50/1" and rec["geometric"] is None


def test_classify_inadmissible_module_file(tmp_path, capsys):
    rec = {
        "p": 7, "m": 1, "precision": 32,
        # prod Frobenius, fil1 = span(e1, e3): phi-stable
        "phi": ["0/1", "0/1", "7/1", "0/1",
                 "0/1", "0/1", "0/1", "7/1",
                 "1/1", "0/1", "0/1", "0/1",
                 "0/1", "1/1", "0/1", "0/1"],
        "fil1": ["1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1", "0/1"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rec))
    code, _, err = run_cli(capsys, "classify", "--prime", "7", "--module-file", str(path))
    assert code == 1 and "phi-stable" in err and "witness" in err


@pytest.mark.parametrize("command", ("classify", "monodromy"))
@pytest.mark.parametrize("m,scalar", (("1", "1/0"), ("3", "0+zeta*1/0")))
def test_zero_denominator_params(capsys, command, m, scalar):
    code, out, err = run_cli(
        capsys, command, "--prime", "7", "--cyclotomic", m, "--family", "mu", f"--params={scalar},1"
    )
    assert code == 1 and out == ""
    assert err == f"error: zero denominator in scalar '{scalar}'\n"


PROD_PHI = [0, 0, 7, 0, 0, 0, 0, 7, 1, 0, 0, 0, 0, 1, 0, 0]
FIL1 = ["1/1", "0/1", "0/1", "0/1", "0/1", "1/1", "0/1", "0/1"]


@pytest.mark.parametrize(
    "record,message",
    (
        ([7, PROD_PHI, FIL1], "module record must be a JSON object"),
        ({"p": 7, "fil1": FIL1}, "module record has no 'phi' field"),
        ({"p": 7, "phi": PROD_PHI, "fil1": FIL1}, 'phi must be a list of scalar strings such as "1/2"'),
    ),
)
def test_malformed_module_file(tmp_path, capsys, record, message):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, "classify", "--prime", "7", "--module-file", str(path))
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags,message",
    (
        (("--prime", "11"), "--prime 11 does not match p = 7"),
        (("--prime", "7", "--cyclotomic", "3"), "--cyclotomic 3 does not match m = 1"),
    ),
)
def test_module_file_context_mismatch(tmp_path, capsys, flags, message):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_record(build_family(Nu(0, 49), PrimeContext(7)))))
    code, out, err = run_cli(capsys, "classify", *flags, "--module-file", str(path))
    assert code == 1 and out == "" and err == f"error: {message} in the module record\n"


def test_monodromy_commands(capsys):
    code, out, _ = run_cli(
        capsys, "monodromy", "--prime", "7", "--family", "prod", "--params", "1", "--format", "json"
    )
    assert code == 0 and json.loads(out)["type"] == "Gm2"
    code, out, _ = run_cli(
        capsys, "monodromy", "--prime", "7", "--epsilon", "0", "--family", "iso",
        "--params", "-1", "--format", "json",
    )
    assert code == 0 and json.loads(out)["type"] == "GL2"
    code, out, _ = run_cli(
        capsys, "monodromy", "--prime", "7", "--epsilon", "1", "--family", "mu",
        "--params", "0+zeta*-7,1", "--cyclotomic", "3", "--format", "json",
    )
    rec = json.loads(out)
    assert code == 0 and rec["type"] == "Ga2SemidirectGm2" and rec["semisimple"] is False


def test_scan_h3(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--prime", "7", "--epsilon", "0", "--height", "3", "--format", "json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    rows = [json.loads(l) for l in lines[:-1]]
    # every row with c outside {+-14, 0, inf} is GL2FiberDet
    for rec in rows:
        if rec["c"] not in ("14/1", "-14/1", "0/1", "inf"):
            assert rec["group"]["type"] == "GL2FiberDet"
    assert summary["Gm3"] >= 1
    origin = next(r for r in rows if r["point"] == ["0/1", "1/1", "0/1"])
    assert origin["group"]["type"] == "Gm2"


def test_scan_determinism(capsys):
    argv = ["scan", "--prime", "7", "--epsilon", "1", "--height", "2", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0 and out1 == out2


def test_scan_cyclotomic_shows_branches(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--prime", "13", "--epsilon", "0", "--cyclotomic", "4",
        "--height", "2", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()[:-1]]
    branches = {r["class"].get("branch") for r in rows if r["class"]["tag"] == "MuDegenerate"}
    assert branches == {"Line1", "Line2", "Origin"}
    for r in rows:
        if r["class"].get("branch") in ("Line1", "Line2"):
            assert r["group"]["type"] == "Ga2SemidirectGm2"
        if r["class"].get("branch") == "Origin":
            assert r["group"]["type"] == "Gm2"


def test_scan_height_cap(capsys):
    code, _, err = run_cli(capsys, "scan", "--prime", "7", "--height", "99")
    assert code == 1 and "height" in err
    code, out, err = run_cli(capsys, "scan", "--prime", "7", "--height", "-1")
    assert code == 1 and "height" in err and out == ""


def test_invariant_violation_exit_code(capsys, monkeypatch):
    import importlib

    from phimod.linalg import lie_closure
    from phimod.monodromy import GroupType

    scan_mod = importlib.import_module("phimod.scan")  # the package's `scan` is the function
    monodromy_mod = importlib.import_module("phimod.monodromy")
    monkeypatch.setattr(scan_mod, "monodromy_group", lambda params, ctx: GroupType("Gm3", 3, True))
    code, _, err = run_cli(capsys, "scan", "--prime", "7", "--height", "1")
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    # a closure without the scalars breaks the monodromy invariant
    monkeypatch.setattr(monodromy_mod, "lie_closure", lambda gens: lie_closure(gens[:1]))
    code, _, err = run_cli(capsys, "monodromy", "--prime", "7", "--family", "mu", "--params", "7,0")
    assert code == 2 and "identity" in err and "Traceback" not in err


@pytest.mark.parametrize("error", (OracleDisagreement, NoCyclicVector, InvariantViolation))
def test_internal_errors_exit_2(capsys, monkeypatch, error):
    def failing(D):
        raise error("forced")

    monkeypatch.setattr("phimod.cli.canonical_class", failing)
    code, out, err = run_cli(capsys, "classify", "--prime", "7", "--family", "nu", "--params", "49")
    assert code == 2 and out == "" and err == "error: forced\n"


def test_invariant_violation_is_one_class():
    import phimod
    import phimod.monodromy

    assert phimod.InvariantViolation is phimod.monodromy.InvariantViolation is InvariantViolation


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "weil", "lattice")
    assert code == 0
    assert "[PASS] criterion 1" in out and "[PASS] criterion 8" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    import phimod.verify as verify_mod
    from phimod.verify import CriterionResult

    def failing():
        return CriterionResult(1, "stub", False, "forced failure")

    monkeypatch.setitem(verify_mod.SUITES, "weil", (1,))
    monkeypatch.setitem(verify_mod.CRITERIA, 1, failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "weil")
    assert code == 2 and "[FAIL]" in out


def test_precision_exhaustion_exit_code(capsys, monkeypatch):
    from phimod.scalars import hensel_root

    monkeypatch.setenv("PHIMOD_NMAX", "2")
    deep = hensel_root(3, 7, 6)
    code, _, err = run_cli(
        capsys, "classify", "--prime", "7", "--epsilon", "0", "--cyclotomic", "3",
        "--precision", "1", "--family", "nu", f"--params=-{deep}+zeta*1",
    )
    assert code == 3 and "PHIMOD_NMAX" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--prime", "7", "--epsilon", "2"])
    assert exc.value.code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "phimod.cli", "weil", "--prime", "11"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 6
