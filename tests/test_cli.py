"""Command-line interface: output formats, exit codes, error reporting."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qrds
import qrds.cli as cli
import qrds.bailey as bailey
import qrds.catalog as catalog
import qrds.hecke as hecke
from qrds.catalog import eval_named
from qrds.cli import main
from qrds.errors import (
    Beta0NotZero,
    FormPairMismatch,
    NoStabilization,
    UnsupportedField,
)
from qrds.verify import LegReport, VerificationReport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


ENGINE = (
    "eval_named", "eval_blocks", "ideal_series", "verify_all", "verify_theorem",
    "verify_corollary", "verify_sigma", "bailey_step", "verify_pair_relation", "lacunarity_report",
)


def usage_error(capsys, monkeypatch, *argv):
    """Run ``main`` on bad usage with every engine entry point the CLI calls
    made to fail: argparse exits 2 before any of them runs and prints nothing
    to stdout.  Returns the last stderr line, argparse's error line."""
    def engine(*args, **kwargs):
        raise AssertionError("the engine must not run on bad arguments")

    for name in ENGINE:
        monkeypatch.setattr(cli, name, engine)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert err.startswith("usage: qrds")
    return err.splitlines()[-1]


def coeff_map(payload: dict) -> dict:
    out = {}
    for row in payload["coefficients"]:
        assert set(row) == {"exp", "num", "den"}
        out[row["exp"]] = Fraction(int(row["num"]), int(row["den"]))
    return out


L5_HEAD = {2: 2, 5: 2, 7: 2, 10: 2, 14: 4, 17: 2, 23: 4, 25: 2, 26: 2}


def test_no_command(capsys, monkeypatch):
    assert usage_error(capsys, monkeypatch) == "qrds: error: the following arguments are required: command"


def test_series_json(capsys):
    rc, out, _ = run(capsys, "series", "--id", "l5", "--order", "30")
    assert rc == 0
    payload = json.loads(out)
    assert payload["id"] == "L5"
    assert payload["order"] == 30
    assert coeff_map(payload) == L5_HEAD


def test_series_csv(capsys):
    rc, out, _ = run(capsys, "series", "--id", "L5", "--order", "30", "--csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["exp", "num", "den"]
    got = {int(e): Fraction(int(n), int(d)) for e, n, d in rows[1:]}
    assert got == L5_HEAD


def test_hecke_json(capsys):
    rc, out, _ = run(capsys, "hecke", "--id", "L1", "--order", "40")
    assert rc == 0
    payload = json.loads(out)
    assert payload["id"] == "L1"
    assert payload["blocks"], "needs at least one block"
    for block in payload["blocks"]:
        assert set(block) == {"n0", "p", "r", "A", "B", "C", "D", "E", "coeff", "factor"}
    got = coeff_map(payload["series"])
    want = eval_named("L1", 40)
    assert got == {
        e: want.coefficient(e) for e in range(0, 41) if want.coefficient(e)
    }


def test_ideals_json(capsys):
    rc, out, _ = run(
        capsys, "ideals", "--d", "2", "--residue", "15", "--modulus", "32",
        "--order", "200", "--weight", "1/2",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["restriction"] == "all"
    assert payload["weight"] == "1/2"
    assert coeff_map(payload) == {47: 1, 79: 1, 175: 1}


def test_ideals_neg_norm(capsys):
    rc, out, _ = run(
        capsys, "ideals", "--d", "3", "--residue", "0", "--modulus", "2",
        "--order", "20", "--neg-norm", "--weight", "2",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["restriction"] == "neg"
    assert coeff_map(payload)[2] == 2


def test_verify_theorem_human(capsys):
    rc, out, _ = run(capsys, "verify", "--theorem", "1", "--order", "64")
    assert rc == 0
    assert out.startswith("theorem-01: pass (")


def test_verify_all_json(capsys):
    rc, out, _ = run(capsys, "verify", "--all", "--order", "40", "--json")
    assert rc == 0
    payload = json.loads(out)
    ids = [r["id"] for r in payload]
    assert ids == (
        [f"corollary-{j}" for j in range(1, 5)]
        + ["sigma"]
        + [f"theorem-{i:02d}" for i in range(1, 13)]
    )
    assert all(r["status"] == "pass" for r in payload)


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationReport(
        "sigma", 40, [LegReport("theta", (5, Fraction(1), Fraction(2)))], 1
    )
    monkeypatch.setattr(cli, "verify_sigma", lambda order: failing)
    rc, out, _ = run(capsys, "verify", "--sigma", "--order", "40")
    assert rc == 1
    assert "sigma: FAIL at q^5" in out
    assert "theta: 1 != 2" in out


def test_bailey_info(capsys):
    rc, out, _ = run(capsys, "bailey", "--pair", "p2a")
    assert rc == 0
    assert out.strip() == "P2A: Bailey pair relative to a = 1"


@pytest.mark.parametrize("argv, want", [
    (("--pair", "p2a"), {"pair": "P2A", "rel": "1"}),
    (("--pair", " p3b ", "--step"), {"pair": "P3B*", "rel": "q"}),
], ids=["base", "stepped"])
def test_bailey_info_json(capsys, argv, want):
    rc, out, _ = run(capsys, "bailey", *argv, "--json")
    assert rc == 0
    assert json.loads(out) == want


def test_bailey_check_json(capsys):
    rc, out, _ = run(
        capsys, "bailey", "--pair", "bk2", "--check",
        "--nmax", "6", "--order", "50", "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "pair": "BK2",
        "rel": "q",
        "n_max": 6,
        "order": 50,
        "status": "pass",
        "failures": [],
    }


def test_bailey_step_check(capsys):
    rc, out, _ = run(
        capsys, "bailey", "--pair", "p1b", "--check", "--step",
        "--nmax", "5", "--order", "40",
    )
    assert rc == 0
    assert "relation holds" in out


def test_report_lacunarity(capsys):
    rc, out, _ = run(capsys, "report", "--lacunarity", "--id", "sigma", "--order", "64")
    assert rc == 0
    payload = json.loads(out)
    assert payload["id"] == "SIGMA"
    assert [w["lo"] for w in payload["windows"]] == [1, 2, 4, 8, 16, 32, 64]


def test_usage_error_unknown_series(capsys, monkeypatch):
    assert usage_error(capsys, monkeypatch, "series", "--id", "L99", "--order", "10") == (
        "qrds series: error: argument --id: unknown series id 'L99'"
    )


def test_usage_error_unknown_pair(capsys, monkeypatch):
    assert usage_error(capsys, monkeypatch, "bailey", "--pair", "zzz") == (
        "qrds bailey: error: argument --pair: unknown Bailey pair 'zzz'"
    )


def test_usage_error_bad_weight(capsys, monkeypatch):
    for weight, rule in (("a/b", "is not a rational number"), ("1/0", "has a zero denominator")):
        argv = ("ideals", "--d", "2", "--residue", "0", "--modulus", "1", "--order", "10", "--weight", weight)
        assert usage_error(capsys, monkeypatch, *argv) == (
            f"qrds ideals: error: argument --weight: weight '{weight}' {rule}"
        )


def test_usage_error_bailey_negative_nmax(capsys, monkeypatch):
    assert usage_error(capsys, monkeypatch, "bailey", "--pair", "p2a", "--check", "--nmax", "-2") == (
        "qrds bailey: error: argument --nmax: must be >= 0, got -2"
    )


def test_usage_error_bailey_negative_order(capsys, monkeypatch):
    assert usage_error(capsys, monkeypatch, "bailey", "--pair", "p2a", "--check", "--order", "-1") == (
        "qrds bailey: error: argument --order: must be >= 0, got -1"
    )


def test_usage_error_report_kind(capsys, monkeypatch):
    assert usage_error(capsys, monkeypatch, "report", "--id", "sigma", "--order", "10") == (
        "qrds report: error: the following arguments are required: --lacunarity"
    )


@pytest.mark.parametrize("argv, line", [
    (("series", "--id", "L5", "--order", "-1"), "qrds series: error: argument --order: must be >= 0, got -1"),
    (("hecke", "--id", "L5", "--order", "-3"), "qrds hecke: error: argument --order: must be >= 0, got -3"),
    (("verify", "--sigma", "--order", "-1"), "qrds verify: error: argument --order: must be >= 0, got -1"),
    (("report", "--lacunarity", "--id", "sigma", "--order", "-1"),
     "qrds report: error: argument --order: must be >= 0, got -1"),
    (("ideals", "--d", "2", "--residue", "0", "--modulus", "0", "--order", "10"),
     "qrds ideals: error: argument --modulus: must be >= 1, got 0"),
    (("ideals", "--d", "2", "--residue", "3", "--modulus", "3", "--order", "10"),
     "qrds: error: argument --residue: must lie in [0, 3), got 3"),
    (("ideals", "--d", "2", "--residue", "-1", "--modulus", "3", "--order", "10"),
     "qrds: error: argument --residue: must lie in [0, 3), got -1"),
    (("hecke", "--id", "z2", "--order", "5"), "qrds hecke: error: argument --id: no block set for id 'z2'"),
], ids=["series-order", "hecke-order", "verify-order", "report-order", "modulus", "residue-high",
        "residue-low", "hecke-id"])
def test_usage_error_checked_before_computing(capsys, monkeypatch, argv, line):
    assert usage_error(capsys, monkeypatch, *argv) == line


@pytest.mark.parametrize(
    "error",
    [ValueError, NoStabilization, FormPairMismatch, Beta0NotZero, UnsupportedField],
    ids=lambda e: e.__name__,
)
def test_internal_value_error_is_not_usage(capsys, monkeypatch, error):
    # arguments are checked up front and the CLI sets no star budget, so
    # even a sum that does not terminate is an engine fault, not bad usage
    def broken(series_id, order):
        raise error("coefficient stored beyond declared order")

    monkeypatch.setattr(cli, "eval_named", broken)
    rc, out, err = run(capsys, "series", "--id", "L5", "--order", "30")
    assert rc == 3
    assert out == ""
    assert err.startswith(f"internal error: {error.__name__}: coefficient stored beyond declared order")


@pytest.mark.parametrize("table, key, entry, theorem, error", [
    # no argument reaches limit_form's pair check, so a mismatch is the table's fault
    (catalog._DOUBLES, "L1", ("A1", "P2B", 0), "1", "FormPairMismatch"),
    # every id and pair argparse accepted is in the tables, so a missing
    # entry is one too, not an unknown name on the command line
    (hecke._CATALOG, "L3", None, "3", "UnknownId"),
    (bailey._PAIRS, "P3A", None, "3", "UnknownPair"),
], ids=["form-pair", "block-set", "pair"])
def test_internal_table_fault_is_not_usage(capsys, monkeypatch, table, key, entry, theorem, error):
    if entry is None:
        monkeypatch.delitem(table, key)
    else:
        monkeypatch.setitem(table, key, entry)
    rc, out, err = run(capsys, "verify", "--theorem", theorem, "--order", "50")
    assert rc == 3
    assert out == ""
    assert err.startswith(f"internal error: {error}")


def test_reader_closing_stdout_early_is_not_a_fault():
    src = str(Path(qrds.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["ideals", "--d", "2", "--residue", "0", "--modulus", "1", "--order", "100000", "--csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "qrds.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"exp,num,den")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141  # 128 + SIGPIPE
    assert err == b""


def test_argparse_rejections():
    with pytest.raises(SystemExit) as info:
        main(["verify"])  # selector required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["series", "--id", "L1", "--order", "5", "--json", "--csv"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["ideals", "--d", "5", "--residue", "0", "--modulus", "1", "--order", "5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "--theorem", "13"])
    assert info.value.code == 2
