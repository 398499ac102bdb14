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


def test_present_lines_have_no_trailing_whitespace(capsys):
    # (1,0) and (1,1) have no generators: their line reads "generators:"
    for g in range(1, 9):
        for n in ("0", "1"):
            assert main(["present", "-g", str(g), "-n", n]) == 0
            out = capsys.readouterr().out
            bad = [line for line in out.splitlines() if line != line.rstrip()]
            assert not bad, (g, n, bad)
            if g == 1:
                assert "\ngenerators:\n" in out, (g, n)


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


# (1,1) has no generators, no relators and no entry: its B3 had two empty sides
@pytest.mark.parametrize("g,n,tier", [(5, 0, "2"), (8, 1, "3"), (1, 1, "all")])
def test_verify_selection_that_checks_nothing_is_a_usage_error(capsys, g, n, tier):
    assert main(["verify", "-g", str(g), "-n", str(n), "--tier", tier]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "checks" if tier == "all" else f"tier-{tier} checks"
    assert captured.err == f"no {what} at ({g},{n})\n"


def test_verify_all_tiers_closed_still_passes(capsys):
    assert main(["verify", "-g", "4", "-n", "0", "--tier", "all"]) == 0
    out = capsys.readouterr().out
    assert "tier 1" in out and "tier 3" in out and "FAIL" not in out


def test_output_does_not_depend_on_letter_ids():
    # letters are interned in first-sight order, so a process that has
    # seen other generators first, and the genus-6 ones in reverse, numbers
    # every letter differently; what it prints must not change
    import os
    import subprocess
    import sys
    from pathlib import Path

    commands = [["present", "-g", "6", "-n", "0", "--format", "json"],
                ["verify", "-g", "6", "-n", "1"], ["replay"]]
    code = f"""
import contextlib, io, json
from nmcg.cli import main
from nmcg.words import gen, letter, named
six = [gen(f, i) for f in "au" for i in range(1, 6)] + [gen("b", j) for j in range(3)]
six += [named(s) for s in ("y1", "y2", "v", "r6", "c")]
for g in [gen("u", 11), gen("b", 7), named("x9"), named("zz")] + six[::-1]:
    letter(g)
outs = []
for argv in {commands!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    outs.append([rc, buf.getvalue()])
print(json.dumps({{"u11": letter(gen("u", 11)), "outs": outs}}))
"""
    src = str(Path(verify_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = lambda args: subprocess.run([sys.executable, *args], capture_output=True,
                                      text=True, env=env, timeout=120)
    shifted = run(["-c", code])
    assert shifted.returncode == 0, shifted.stderr
    doc = json.loads(shifted.stdout)
    assert doc["u11"] == 1, "u11 should take the first id"
    for argv, (rc, out) in zip(commands, doc["outs"]):
        fresh = run(["-m", "nmcg.cli", *argv])
        assert (rc, out) == (fresh.returncode, fresh.stdout), argv
        assert rc == 0 and out, argv


# sha256 of stdout, first 16 hex digits. A change that alters these bytes on
# purpose updates the hash and says why
GOLDEN = {
    "present -g 2 -n 0": "b9837861438710f4",
    "present -g 3 -n 0": "4d9ee3537c81dee7",
    "present -g 3 -n 1": "81450d7178600ef8",
    "present -g 8 -n 0": "9164c2e07675d5f9",
    "present -g 8 -n 1 --format json": "02b0e696585cd5ec",
    "present -g 24 -n 1": "d5adef754cbd6d33",
    "present -g 24 -n 0 --format json": "0e824385b572aa54",
    "verify -g 8 -n 1": "75e7d58f1259d182",
    "verify -g 8 -n 0": "c22e59797cae7b8b",
    "verify -g 3 -n 1": "28bb3350d7f97af6",
    "verify -g 24 -n 0": "8345976e95cd9eae",
    "verify -g 6 -n 0 --tier 3": "dbf3f348ef45c673",
    "verify -g 12 -n 1 --tier 1": "04192906c90a3226",
    "verify -g 12 -n 1 --tier 2": "3dda1ed951a3e797",
    "verify -g 2 -n 1": "48d5f99051f35b1a",
    "verify -g 20 -n 1": "84d553d2772cb6ad",
    "replay": "4ed9b0ca51aae1e3",
    "tables -g 2": "61caf55f97689fb0",
    "tables -g 8": "563f915b4ac09b9a",
    "abelianize -g 2 -n 1": "694d4a2ed2ee79e9",
    "abelianize -g 7 -n 0": "0216cf2e7ade1f36",
    "abelianize -g 7 -n 1": "0216cf2e7ade1f36",
    "abelianize -g 24 -n 0": "0216cf2e7ade1f36",
    "abelianize -g 48 -n 1": "0216cf2e7ade1f36",
    "abelianize -g 96 -n 0": "0216cf2e7ade1f36",
}


def test_outputs_match_their_golden_hashes(capsys):
    import hashlib

    changed = []
    for command, digest in GOLDEN.items():
        rc = main(command.split())
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()[:16]
        if (rc, got) != (0, digest):
            changed.append(f"{command}: exit {rc}, sha256 {got}, pinned {digest}")
    assert not changed, "\n".join(changed)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_without_a_traceback(unbuffered):
    # as in `nmcg verify -g 4 -n 1 | head -3`, but with the read end closed
    # before the first write, so every run meets the closed pipe: buffered,
    # at the final flush, and unbuffered, at the first print
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(verify_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run([sys.executable, "-m", "nmcg.cli", "verify", "-g", "4", "-n", "1"],
                             stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(w)
    assert res.stderr == "", res.stderr
    assert res.returncode == 1


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


def test_replay_all(capsys):
    assert main(["replay"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 16


def test_replay_named(capsys):
    assert main(["replay", "transport_u2"]) == 0
    out = capsys.readouterr().out
    assert "transport_u2" in out and "steps=2" in out


@pytest.mark.parametrize("name", ["nosuch", "../x"])
def test_replay_rejects_a_name_that_is_no_script(name, capsys):
    # a name outside replay.available_scripts() is a usage error; it is
    # never joined onto the script directory
    with pytest.raises(SystemExit) as exc:
        main(["replay", "transport_u2", name])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"no replay script named {name!r}" in captured.err
    assert captured.out == ""


def test_tables(capsys):
    assert main(["tables", "-g", "8"]) == 0
    out = capsys.readouterr().out
    assert "a1" in out and "x1" in out
    assert any(line.startswith("b3: ") for line in out.splitlines())
    assert out.endswith("\n") and not out.endswith("\n\n"), "one newline after the last table"


def test_unknown_command_exits_2(capsys):
    # enumerate is no command: coset enumeration never finishes on
    # the groups the paper presents, all of which are infinite
    for argv in (["frobnicate"], ["enumerate", "-g", "2", "-n", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
