"""Command-line surface: exit codes and output shapes for every
subcommand."""

import dataclasses
import json

import pytest

import nmcg.verify as verify_mod
from nmcg.catalogue import catalogue
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
    for label in ("B3", "B7(4,closed)", "G2", "G3"):
        assert f"ok   (4,1) tier 2 {label}: lhs = rhs*w^1" in out, f"{label} not reported ok"
    assert "G1" not in out, "G1 holds exactly and is reported at tier 1"
    # a tier-2 failure must surface in the exit code
    entries = [dataclasses.replace(e, twist=3) if e.label() == "B7(4,closed)" else e
               for e in catalogue(4, 1)]
    monkeypatch.setattr(verify_mod, "catalogue", lambda g, n: entries)
    rc = main(["verify", "-g", "4", "-n", "1", "--tier", "2"])
    out = capsys.readouterr().out
    assert rc == 1, "a failed tier-2 verdict must surface in the exit code"
    assert "FAIL (4,1) tier 2 B7(4,closed): lhs != rhs*w^3" in out
    # the stated exponents replaced the pinned ones: nothing is left to refresh
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-g", "4", "-n", "1", "--refresh-fixtures"])
    assert exc.value.code == 2


def test_verify_tier3_closed(capsys):
    assert main(["verify", "-g", "4", "-n", "0", "--tier", "3"]) == 0
    out = capsys.readouterr().out
    assert "tier 3" in out and "FAIL" not in out
    tier3 = [e for e in catalogue(4, 0) if e.tier == 3]
    assert out.count("inner in the quotient, conjugator") == len(tier3)


def test_verify_no_hints(capsys):
    # the tier-3 decision is exact: it reads no pinned conjugators, and the
    # flag that used to switch them off is refused as an unknown option
    assert not hasattr(verify_mod, "pinned_conjugators")
    assert main(["verify", "-g", "5", "-n", "0", "--tier", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-g", "4", "-n", "0", "--tier", "3", "--no-hints"])
    assert exc.value.code == 2


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
    assert main(["tables", "-g", "8"]) == 0
    out = capsys.readouterr().out
    assert "a1" in out and "x1" in out
    assert any(line.startswith("b3: ") for line in out.splitlines())


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
