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
import qrds.catalog as catalog
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


def coeff_map(payload: dict) -> dict:
    out = {}
    for row in payload["coefficients"]:
        assert set(row) == {"exp", "num", "den"}
        out[row["exp"]] = Fraction(int(row["num"]), int(row["den"]))
    return out


L5_HEAD = {2: 2, 5: 2, 7: 2, 10: 2, 14: 4, 17: 2, 23: 4, 25: 2, 26: 2}


def test_no_command(capsys):
    rc, _, err = run(capsys)
    assert rc == 2
    assert "usage" in err


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


def test_usage_error_unknown_series(capsys):
    rc, _, err = run(capsys, "series", "--id", "L99", "--order", "10")
    assert rc == 2
    assert err.startswith("error:")
    assert "L99" in err


def test_usage_error_unknown_pair(capsys):
    rc, _, err = run(capsys, "bailey", "--pair", "zzz")
    assert rc == 2
    assert "zzz" in err


def test_usage_error_bad_weight(capsys):
    for weight in ("a/b", "1/0"):
        rc, _, err = run(
            capsys, "ideals", "--d", "2", "--residue", "0", "--modulus", "1",
            "--order", "10", "--weight", weight,
        )
        assert rc == 2, weight
        assert err.startswith("error:"), weight


def test_usage_error_bailey_negative_nmax(capsys):
    rc, out, err = run(capsys, "bailey", "--pair", "p2a", "--check", "--nmax", "-2")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_usage_error_bailey_negative_order(capsys):
    rc, out, err = run(capsys, "bailey", "--pair", "p2a", "--check", "--order", "-1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_usage_error_report_kind(capsys):
    rc, _, err = run(capsys, "report", "--id", "sigma", "--order", "10")
    assert rc == 2
    assert "--lacunarity" in err


@pytest.mark.parametrize("argv", [
    ("series", "--id", "L5", "--order", "-1"),
    ("hecke", "--id", "L5", "--order", "-3"),
    ("verify", "--sigma", "--order", "-1"),
    ("report", "--lacunarity", "--id", "sigma", "--order", "-1"),
    ("ideals", "--d", "2", "--residue", "0", "--modulus", "0", "--order", "10"),
    ("ideals", "--d", "2", "--residue", "3", "--modulus", "3", "--order", "10"),
    ("ideals", "--d", "2", "--residue", "-1", "--modulus", "3", "--order", "10"),
])
def test_usage_error_checked_before_computing(capsys, monkeypatch, argv):
    def engine(*args, **kwargs):
        raise AssertionError("the engine must not run on bad arguments")

    for name in ("eval_named", "eval_blocks", "verify_sigma", "lacunarity_report", "ideal_series"):
        monkeypatch.setattr(cli, name, engine)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


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


def test_internal_table_fault_is_not_usage(capsys, monkeypatch):
    # no argument reaches limit_form's pair check, so a mismatch is the table's fault
    monkeypatch.setitem(catalog._DOUBLES, "L1", ("A1", "P2B", 0))
    rc, out, err = run(capsys, "verify", "--theorem", "1")
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error: FormPairMismatch")


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
