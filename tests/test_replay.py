"""Rewrite replayer: the shipped scripts, the licensing rule for ad-hoc
match/replace steps, and the endpoint cross-check."""

from functools import partial

import pytest

from nmcg.catalogue import relation_index
from nmcg.presentations import Entry
from nmcg.replay import (
    StepMismatch,
    _apply_step,
    _licensed,
    available_scripts,
    load_script,
    replay_all,
    replay_script,
)
from nmcg.words import parse, parse_raw


def test_all_shipped_scripts_replay():
    reports = replay_all()
    assert sorted(r.name for r in reports) == available_scripts()
    assert len(reports) == 16
    for r in reports:
        data = load_script(r.name)
        assert r.steps == len(data["steps"])
        assert r.tier == data["tier"]
        if r.tier == 2:
            assert r.w_power == data["w_power"]


def test_dependencies_replay_transitively():
    report = replay_script("g3")
    assert report.tier == 2 and report.w_power == 1
    deps = load_script("g3").get("uses", ())
    assert "g2" in deps


def test_replay_all_reads_each_script_once(monkeypatch):
    # a dependency's conclusion is kept on its report in the memo, so a
    # script cited by several others, or replayed first as a dependency,
    # is not read again; the conclusion is the Entry its endpoint check
    # verified
    import nmcg.replay as replay_mod

    reads, checked = [], []
    monkeypatch.setattr(replay_mod, "load_script", lambda name: reads.append(name) or load_script(name))
    verify_entry = replay_mod.verify_entry
    monkeypatch.setattr(replay_mod, "verify_entry", lambda e: checked.append(e) or verify_entry(e))
    reports = replay_all()
    assert sorted(reads) == available_scripts() == sorted(r.name for r in reports)
    cited = {dep for name in reads for dep in load_script(name).get("uses", ())}
    assert cited, "no script cites another"
    for r in reports:
        data = load_script(r.name)
        start, end = parse_raw(data["start"]), parse_raw(data["end"])
        assert r.conclusion == Entry(f"script:{r.name}", (), r.genus, r.boundary,
                                     start, end, r.tier, r.w_power), r.name
    assert sorted(map(id, checked)) == sorted(id(r.conclusion) for r in reports)


def test_licensing_accepts_rotations_and_inverses():
    rel = Entry("C2", (1,), 4, 1, parse("a1*u2*u1"), parse("u2*u1*a2")).word
    # the relation itself and its reverse reading
    assert _licensed(parse_raw("a1*u2*u1"), parse_raw("u2*u1*a2"), rel)
    assert _licensed(parse_raw("u2*u1*a2"), parse_raw("a1*u2*u1"), rel)
    # a rotated reading: the quotient word is a cyclic shift of the relation
    assert _licensed(
        parse_raw("u2*u1"), parse_raw("a1^-1*u2*u1*a2"), rel
    )
    # an inverse-rotated reading
    assert _licensed(
        parse_raw("a2"), parse_raw("u1^-1*u2^-1*a1*u2*u1"), rel
    )
    # trivial rewrites are always licensed
    assert _licensed(parse_raw("a1*a1^-1"), (), rel)


def test_licensing_rejects_unrelated_rewrites():
    rel = Entry("C2", (1,), 4, 1, parse("a1*u2*u1"), parse("u2*u1*a2")).word
    assert not _licensed(parse_raw("a1"), parse_raw("a2"), rel)
    assert not _licensed(parse_raw("a1*u2*u1"), parse_raw("u2*u1*a3"), rel)
    assert not _licensed((), parse_raw("a1*a1"), rel)


def test_apply_step_checks_position_exactly():
    index = dict(relation_index(4, 1))
    word = list(parse_raw("a3*a1*u2*u1"))
    step = {"op": "apply", "at": 1, "rel": "C2", "params": [1], "dir": "LtoR"}
    key = ("C2", (1,))
    if key not in index:
        pytest.skip("C2 spelled differently in the relation index")
    out = _apply_step("t", 0, word, step, index, (4, 1, 1))
    assert tuple(out) == parse_raw("a3*u2*u1*a2")
    step_bad = dict(step, at=0)
    with pytest.raises(StepMismatch):
        _apply_step("t", 0, word, step_bad, index, (4, 1, 1))


def test_apply_step_rejects_unlicensed_replace():
    index = dict(relation_index(4, 1))
    word = list(parse_raw("a1*u2*u1"))
    step = {
        "op": "apply",
        "at": 0,
        "rel": "C2",
        "params": [1],
        "match": "a1*u2*u1",
        "replace": "u1*u2*a2",
    }
    with pytest.raises(StepMismatch, match="not a consequence"):
        _apply_step("t", 0, word, step, index, (4, 1, 1))


def test_apply_step_rejects_unknown_relation():
    with pytest.raises(StepMismatch, match="unknown relation"):
        _apply_step("t", 0, [], {"op": "apply", "at": 0, "rel": "nope", "dir": "LtoR"}, {}, (4, 1, 1))


def test_apply_step_rejects_a_position_out_of_range():
    # B3 at (4,0) has an empty right side: read RtoL it matches the empty
    # subword, which must still sit inside the word, at 0..len(word)
    index = dict(relation_index(4, 0))
    word = list(parse_raw("a1*a2"))
    for at in (99, -1, 3):
        step = {"op": "apply", "at": at, "rel": "B3", "dir": "RtoL"}
        with pytest.raises(StepMismatch, match=f"apply position {at} out of range"):
            _apply_step("t", 0, word, step, index, (4, 0, 1))
    assert len(_apply_step("t", 0, word, dict(step, at=2), index, (4, 0, 1))) > len(word)
    # a nonempty match must fit whole: C2 at position 1 of a three-letter
    # word runs off its end
    step = {"op": "apply", "at": 1, "rel": "C2", "params": [1], "dir": "LtoR"}
    with pytest.raises(StepMismatch, match="apply position 1 out of range"):
        _apply_step("t", 0, list(parse_raw("a1*u2*u1")), step, dict(relation_index(4, 1)), (4, 1, 1))


def test_insert_and_cancel_are_inverse():
    word = list(parse_raw("a1*u1"))
    grown = _apply_step("t", 0, word, {"op": "insert", "at": 1, "aux": "b1*a2"}, {}, (4, 1, 1))
    assert len(grown) == 6
    back = _apply_step("t", 1, grown, {"op": "cancel"}, {}, (4, 1, 1))
    assert back == word
    with pytest.raises(StepMismatch, match="out of range"):
        _apply_step("t", 0, word, {"op": "insert", "at": 9, "aux": "b1"}, {}, (4, 1, 1))


def test_tampered_endpoint_is_caught(tmp_path, monkeypatch):
    import nmcg.replay as replay_mod

    data = load_script("transport_u2")
    data["end"] = "u3*a1*a2*a3"
    src = replay_mod.SCRIPT_DIR
    for p in src.glob("*.json"):
        (tmp_path / p.name).write_text(p.read_text())
    import json

    (tmp_path / "transport_u2.json").write_text(json.dumps(data))
    monkeypatch.setattr(replay_mod, "SCRIPT_DIR", tmp_path)
    with pytest.raises(StepMismatch, match="final word"):
        replay_script("transport_u2")


def test_tier2_endpoint_checks_the_stated_exponent(tmp_path, monkeypatch):
    import json

    import nmcg.replay as replay_mod

    for p in replay_mod.SCRIPT_DIR.glob("*.json"):
        (tmp_path / p.name).write_text(p.read_text())
    monkeypatch.setattr(replay_mod, "SCRIPT_DIR", tmp_path)
    data = load_script("g2")
    assert data["tier"] == 2 and data["w_power"] == 1
    del data["w_power"]
    (tmp_path / "g2.json").write_text(json.dumps(data))
    with pytest.raises(StepMismatch, match="w_power"):
        replay_script("g2")
    data["w_power"] = 2
    (tmp_path / "g2.json").write_text(json.dumps(data))
    with pytest.raises(StepMismatch, match="tier-2 table equality up to w\\^2"):
        replay_script("g2")


def _scripts_with(tmp_path, monkeypatch, *extra):
    """The shipped scripts plus `extra`, in a script dir of their own."""
    import json

    import nmcg.replay as replay_mod

    for p in replay_mod.SCRIPT_DIR.glob("*.json"):
        (tmp_path / p.name).write_text(p.read_text())
    for data in extra:
        (tmp_path / f"{data['name']}.json").write_text(json.dumps(data))
    monkeypatch.setattr(replay_mod, "SCRIPT_DIR", tmp_path)


def _cites(dep, start, g, n):
    """A tier-1 script at (g, n) that rewrites dep's start to its end and
    back: every step matches, and the endpoint holds whatever dep says."""
    steps = [{"op": "apply", "at": 0, "rel": f"script:{dep}", "dir": d}
             for d in ("LtoR", "RtoL")]
    return {"name": "user", "genus": g, "boundary": n, "tier": 1,
            "start": start, "end": start, "uses": [dep], "steps": steps}


def test_dependency_of_another_genus_is_refused(tmp_path, monkeypatch):
    user = _cites("slide_word_g3", load_script("slide_word_g3")["start"], 4, 1)
    _scripts_with(tmp_path, monkeypatch, user)
    assert replay_script("slide_word_g3").genus == 3
    with pytest.raises(StepMismatch, match=r"dependency 'slide_word_g3' at \(3,1\)"
                       r" tier 1 is no relation of \(4,1\)"):
        replay_script("user")


def test_closed_dependency_of_a_one_boundary_script_is_refused(tmp_path, monkeypatch):
    # a (4,0) derivation is licensed by the closed group's relations, so a
    # (4,1) script may not cite it, however trivial
    closed = {"name": "closed_cancel", "genus": 4, "boundary": 0, "tier": 1,
              "start": "a1*a1^-1", "end": "1", "steps": [{"op": "cancel"}]}
    _scripts_with(tmp_path, monkeypatch, closed, _cites("closed_cancel", closed["start"], 4, 1))
    assert replay_script("closed_cancel").tier == 1
    with pytest.raises(StepMismatch, match=r"dependency 'closed_cancel' at \(4,0\)"
                       r" tier 1 is no relation of \(4,1\)"):
        replay_script("user")


def test_tier2_dependency_of_a_one_boundary_script_is_refused(tmp_path, monkeypatch):
    # G2 at (4,1) holds only up to the boundary twist w
    twisted = {"name": "g2_open", "genus": 4, "boundary": 1, "tier": 2, "w_power": 1,
               "start": "b1*u3*u2*u1*b1",
               "end": "a1*a2*a3*a1*a2*a3*a1*a2*a3*u1^-1*u2^-1*u3^-1*a1*a2*a3*a1*a2*a3*a1*a2*a3",
               "steps": [{"op": "apply", "at": 0, "rel": "G2", "dir": "LtoR"}]}
    _scripts_with(tmp_path, monkeypatch, twisted, _cites("g2_open", twisted["start"], 4, 1))
    assert replay_script("g2_open").w_power == 1
    with pytest.raises(StepMismatch, match=r"dependency 'g2_open' at \(4,1\)"
                       r" tier 2 is no relation of \(4,1\)"):
        replay_script("user")


def test_dependency_written_unreduced_is_cited_by_its_reduced_relation(tmp_path, monkeypatch):
    # script text may be unreduced; the conclusion a dependent cites is not,
    # so a rotation of the reduced relator a1 u1 a1 u1^-1 licenses a rewrite
    dep = {"name": "dep", "genus": 4, "boundary": 1, "tier": 1,
           "start": "a1*u1*u1^-1*u1*a1", "end": "u1",
           "steps": [{"op": "cancel"}, {"op": "apply", "at": 0, "rel": "C4", "dir": "LtoR"}]}
    user = {"name": "user", "genus": 4, "boundary": 1, "tier": 1, "uses": ["dep"],
            "start": "u1*a1", "end": "a1^-1*u1",
            "steps": [{"op": "apply", "at": 0, "rel": "script:dep",
                       "match": "u1*a1", "replace": "a1^-1*u1"}]}
    _scripts_with(tmp_path, monkeypatch, dep, user)
    assert replay_script("dep").conclusion == Entry("script:dep", (), 4, 1, parse("a1*u1*a1"), parse("u1"), 1)
    assert replay_script("user").steps == 1


def test_tier2_dependency_of_a_tier2_one_boundary_script_is_accepted(tmp_path, monkeypatch):
    # the boundary twist is central, and the endpoint check pins its
    # exponent, so a tier-2 script may cite a tier-2 relation of its group
    twisted = {"name": "g2_open", "genus": 4, "boundary": 1, "tier": 2, "w_power": 1,
               "start": "b1*u3*u2*u1*b1",
               "end": "a1*a2*a3*a1*a2*a3*a1*a2*a3*u1^-1*u2^-1*u3^-1*a1*a2*a3*a1*a2*a3*a1*a2*a3",
               "steps": [{"op": "apply", "at": 0, "rel": "G2", "dir": "LtoR"}]}
    user = dict(_cites("g2_open", twisted["start"], 4, 1), tier=2, w_power=0)
    _scripts_with(tmp_path, monkeypatch, twisted, user)
    assert replay_script("user").steps == 2


def test_tier2_entry_is_refused_to_a_tier1_one_boundary_script(tmp_path, monkeypatch):
    # B3 at (4,1) holds only up to the boundary twist: a tier-1 script may
    # not rewrite a1 to (u1u2u3)^4 a1 by it, even one that rewrites it
    # back and whose endpoint a1 = a1 holds. A tier-2 script may. The
    # refusal names B3's tier; a relation (4,1) lacks, such as the
    # closed-surface B4, is still unknown
    steps = [{"op": "apply", "at": 0, "rel": "B3", "dir": d} for d in ("RtoL", "LtoR")]
    bogus = {"name": "bogus", "genus": 4, "boundary": 1, "tier": 1,
             "start": "a1", "end": "a1", "steps": steps}
    _scripts_with(tmp_path, monkeypatch, bogus)
    with pytest.raises(StepMismatch, match=r"step 0: relation B3 is tier 2 at \(4,1\);"
                       r" a tier-1 script at \(4,1\) may not cite it"):
        replay_script("bogus")
    assert relation_index(4, 1)[("B3", ())].tier == 2
    closed = [{"op": "apply", "at": 0, "rel": "B4", "dir": "RtoL"}]
    for tier in (1, 2):
        _scripts_with(tmp_path, monkeypatch, dict(bogus, tier=tier, w_power=0, steps=closed))
        with pytest.raises(StepMismatch, match=r"step 0: unknown relation \('B4', \(\)\)"):
            replay_script("bogus")
    _scripts_with(tmp_path, monkeypatch, dict(bogus, tier=2, w_power=0))
    assert replay_script("bogus").steps == 2


def test_script_metadata_is_checked_before_any_step(tmp_path, monkeypatch):
    # tier 3 would let step 0 cite the tier-2 B3 at (4,1): the script is
    # refused for its tier before a step is replayed
    import nmcg.replay as replay_mod

    steps = [{"op": "apply", "at": 0, "rel": "B3", "dir": "RtoL"}]
    tier3 = {"name": "tier3", "genus": 4, "boundary": 1, "tier": 3,
             "start": "a1", "end": "a1", "steps": steps}
    _scripts_with(tmp_path, monkeypatch, tier3)
    applied = []
    monkeypatch.setattr(replay_mod, "_apply_step", lambda *args: applied.append(args))
    with pytest.raises(StepMismatch, match=r"script 'tier3' step -1: unsupported tier 3"):
        replay_script("tier3")
    assert applied == []


def _step_edit(base, name, i, key, edit):
    """(name, script, step, key) for the script base with edit applied to
    a copy of its step i."""
    steps = [dict(step) for step in base["steps"]]
    edit(steps[i])
    return name, dict(base, steps=steps), i, key


def _malformed():
    """(name, script, step, key): a well-formed (4,1) script, b0 -> a1 by
    A7, then an inserted and cancelled u1 u1^-1, with one key taken out
    or spoiled, and the step (-1 for the script) and key replay names."""
    base = {"genus": 4, "boundary": 1, "tier": 1, "start": "b0", "end": "a1",
            "steps": [{"op": "apply", "at": 0, "rel": "A7", "dir": "LtoR"},
                      {"op": "insert", "at": 0, "aux": "u1"}, {"op": "cancel"}]}
    yield "ok", base, None, None
    for key in ("genus", "boundary", "tier", "start", "end", "steps"):
        yield f"no_{key}", {k: v for k, v in base.items() if k != key}, -1, key
    step_edit = partial(_step_edit, base)
    for key in ("op", "at", "rel"):
        yield step_edit(f"apply_no_{key}", 0, key, lambda step: step.pop(key))
    # with no dir, an apply step needs both match and replace
    yield step_edit("apply_no_dir", 0, "match", lambda step: step.pop("dir"))
    yield step_edit("apply_no_replace", 0, "replace",
                    lambda step: step.pop("dir") and step.update(match="b0"))
    yield step_edit("apply_bad_dir", 0, "dir", lambda step: step.update(dir="LR"))
    yield step_edit("insert_no_aux", 1, "aux", lambda step: step.pop("aux"))


def test_malformed_scripts_are_refused_by_step_and_key(tmp_path, monkeypatch, capsys):
    # the shape check runs before the metadata check and before any step:
    # a missing key is named, never a KeyError, and a dir other than LtoR
    # or RtoL is refused, not read as RtoL; nmcg replay reports each
    from nmcg.cli import main

    cases = [dict(data, name=name) for name, data, _, _ in _malformed()]
    _scripts_with(tmp_path, monkeypatch, *cases)
    for name, _, step, key in _malformed():
        if key is None:
            assert replay_script(name).steps == 3
            continue
        with pytest.raises(StepMismatch, match=rf"^script '{name}' step {step}: .*'{key}'"):
            replay_script(name)
        assert main(["replay", name]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {name}: script '{name}' step {step}: ") and f"'{key}'" in out, out
    # a tier-3 script that lacks "end" is refused for the key, not the tier
    no_end = next(data for data in cases if data["name"] == "no_end")
    _scripts_with(tmp_path, monkeypatch, dict(no_end, name="t3", tier=3))
    with pytest.raises(StepMismatch, match=r"step -1: missing key 'end'"):
        replay_script("t3")


def _ill_typed():
    """(name, script, step, key): the well-formed script of _malformed
    with one key, or an item of a list, of a type other than the one
    replay reads, and the step (-1 for the script) and key replay names.
    A bool is no int, and a str is no list, though both would be read."""
    base = next(_malformed())[1]
    step_edit = partial(_step_edit, base)
    yield "genus_str", dict(base, genus="4"), -1, "genus"
    yield "genus_bool", dict(base, genus=True), -1, "genus"
    yield "boundary_str", dict(base, boundary="1"), -1, "boundary"
    yield "tier_str", dict(base, tier="1"), -1, "tier"
    yield "start_list", dict(base, start=["b0"]), -1, "start"
    yield "end_int", dict(base, end=1), -1, "end"
    yield "steps_dict", dict(base, steps=dict(enumerate(base["steps"]))), -1, "steps"
    yield "uses_str", dict(base, uses="g1"), -1, "uses"
    yield "uses_int_item", dict(base, uses=[1]), -1, "uses"
    yield "w_power_str", dict(base, tier=2, w_power="0"), -1, "w_power"
    yield "step_list", dict(base, steps=[["apply", 0, "A7", "LtoR"]]), 0, "steps"
    yield step_edit("op_list", 0, "op", lambda step: step.update(op=["apply"]))
    yield step_edit("at_str", 0, "at", lambda step: step.update(at="0"))
    yield step_edit("at_bool", 0, "at", lambda step: step.update(at=False))
    yield step_edit("rel_list", 0, "rel", lambda step: step.update(rel=["A7"]))
    yield step_edit("params_dict", 0, "params", lambda step: step.update(params={}))
    yield step_edit("params_bool_item", 0, "params", lambda step: step.update(params=[True]))
    yield step_edit("dir_list", 0, "dir", lambda step: step.update(dir=["LtoR"]))
    yield step_edit("match_list", 0, "match",
                    lambda step: step.pop("dir") and step.update(match=["b0"], replace="a1"))
    yield step_edit("replace_int", 0, "replace",
                    lambda step: step.pop("dir") and step.update(match="b0", replace=1))
    yield step_edit("aux_list", 1, "aux", lambda step: step.update(aux=["u1"]))


@pytest.mark.parametrize("name, data, step, key", list(_ill_typed()), ids=[c[0] for c in _ill_typed()])
def test_ill_typed_keys_are_refused_by_step_and_key(tmp_path, monkeypatch, name, data, step, key):
    # the type check is part of the shape check, before the metadata
    # check and any step: an ill-typed key is named, never a TypeError,
    # an AttributeError, a missing file or a misread value
    _scripts_with(tmp_path, monkeypatch, dict(data, name=name))
    with pytest.raises(StepMismatch, match=rf"^script '{name}' step {step}: (key|an item of) '{key}' is \w+, not \w+$"):
        replay_script(name)


def test_shipped_scripts_cite_these_catalogue_entries():
    # every other rewrite is licensed by a presentation relator or by a
    # script that derives its relation
    from nmcg.presentations import nonorientable_mcg_presentation

    cited = set()
    for name in available_scripts():
        data = load_script(name)
        pres = nonorientable_mcg_presentation(data["genus"], data["boundary"])
        relators = {(r.tag, r.params) for r in pres.relators}
        for step in data["steps"]:
            if step["op"] != "apply" or step["rel"].startswith("script:"):
                continue
            key = (step["rel"], tuple(step.get("params", ())))
            if key not in relators:
                cited.add(f"{key[0]}({','.join(map(str, key[1]))})")
    assert cited == {"C1a(3,1)", "starstar(2)", "E1(4,3)", "B5(4,1)", "B5(4,2)", "B5(4,3)", "B7(4)"}


def test_scripts_declare_consistent_metadata():
    for name in available_scripts():
        data = load_script(name)
        assert data["name"] == name
        assert data["tier"] in (1, 2)
        assert data["genus"] >= 3 and data["boundary"] in (0, 1)
        assert isinstance(data["steps"], list) and data["steps"]


def test_bogus_tier1_endpoint_fails_under_optimize(tmp_path):
    # B4 holds in the closed group only, so a tier-1 script that applies it
    # replays step by step but its endpoint fails in the punctured
    # representation; python -O must not strip that check
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nmcg.replay as replay_mod

    bogus = {
        "name": "bogus", "genus": 4, "boundary": 0, "tier": 1,
        "start": "u1*u2*u1*u2*u1*u2", "end": "1",
        "steps": [{"op": "apply", "at": 0, "rel": "B4", "params": [], "dir": "LtoR"}],
    }
    (tmp_path / "bogus.json").write_text(json.dumps(bogus))
    code = (
        "import pathlib, runpy, sys; import nmcg.replay as r;"
        " r.SCRIPT_DIR = pathlib.Path(sys.argv[1]);"
        " sys.argv = ['nmcg', 'replay', 'bogus'];"
        " runpy.run_module('nmcg.cli', run_name='__main__')"
    )
    src = str(Path(replay_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode != 0, res.stdout + res.stderr
    assert "FAIL bogus" in res.stdout and "tier-1 table equality" in res.stdout
