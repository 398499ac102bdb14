"""Command-line surface: exit codes and output shapes for every
subcommand."""

import json

import pytest

import nmcg.verify as verify_mod
from nmcg.cli import main


def test_present_text(capsys):
    assert main(["present", "-g", "4", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "a1" in out and "u3" in out and "=" in out
    assert "A7" in out


def test_present_json(capsys):
    assert main(["present", "-g", "4", "-n", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 4 and doc["boundary"] == 0


def test_verify_tier1_passes(capsys):
    assert main(["verify", "-g", "3", "-n", "1", "--tier", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


def test_verify_tier2_reports_the_honest_failure(capsys, monkeypatch):
    rc = main(["verify", "-g", "4", "-n", "1", "--tier", "2"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out
    for label in ("B3", "B7(4,closed)", "G1", "G2", "G3"):
        assert f"ok   (4,1) tier 2 {label}:" in out, f"{label} not reported ok"
    # a tier-2 failure must surface in the exit code
    pins = dict(verify_mod.pinned_exponents(), **{"4:B7(4,closed)": 3})
    monkeypatch.setattr(verify_mod, "pinned_exponents", lambda: pins)
    rc = main(["verify", "-g", "4", "-n", "1", "--tier", "2"])
    out = capsys.readouterr().out
    assert rc == 1, "a failed tier-2 verdict must surface in the exit code"
    assert "FAIL" in out and "B7(4,closed)" in out


def test_verify_tier3_closed(capsys):
    assert main(["verify", "-g", "4", "-n", "0", "--tier", "3"]) == 0
    out = capsys.readouterr().out
    assert "tier 3" in out and "FAIL" not in out


def test_verify_no_hints(capsys):
    assert main(["verify", "-g", "4", "-n", "0", "--tier", "3", "--no-hints"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_rejects_closed_small_genus(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-g", "3", "-n", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "-g", "0", "-n", "1"],
    ["present", "-g", "-1", "-n", "0"],
    ["tables", "-g", "0"],
])
def test_rejects_genus_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "genus must be >= 1" in capsys.readouterr().err


def test_abelianize(capsys):
    assert main(["abelianize", "-g", "2", "-n", "0"]) == 0
    out = capsys.readouterr().out
    assert "Z/2 x Z/2" in out


def test_enumerate(capsys):
    assert main(["enumerate", "-g", "2", "-n", "0"]) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_enumerate_csv(capsys):
    assert main(["enumerate", "-g", "2", "-n", "0", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "coset," in out
    # header plus one line per coset
    csv_lines = [ln for ln in out.splitlines() if "," in ln]
    assert len(csv_lines) == 5


def test_enumerate_cap(capsys):
    rc = main(["enumerate", "-g", "4", "-n", "1", "--max-cosets", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "10" in captured.err


def test_replay_all(capsys):
    assert main(["replay"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 16


def test_replay_named(capsys):
    assert main(["replay", "transport_u2"]) == 0
    out = capsys.readouterr().out
    assert "transport_u2" in out and "steps=2" in out


def test_tables(capsys):
    assert main(["tables", "-g", "3"]) == 0
    out = capsys.readouterr().out
    assert "a1" in out and "x1" in out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
