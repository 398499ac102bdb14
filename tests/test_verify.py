"""Verification driver: verdict mechanics, stated tier-2 exponents, and
the rejection of corrupted relations at every tier.

A tier-2 entry states its boundary-twist exponent, so a wrong stated
exponent fails the verdict and no exponent rescues a false relation."""

import dataclasses

import nmcg.verify as verify_mod
from nmcg.catalogue import Entry, catalogue
from nmcg.presentations import delta_word, urun
from nmcg.verify import (
    Verdict,
    boundary_fixation,
    verify_catalogue,
    verify_entry,
    verify_relators,
)
from nmcg.words import Factored, power


def _entry(g, n, label):
    for e in catalogue(g, n):
        if e.label() == label:
            return e
    raise AssertionError(f"no entry {label} at ({g},{n})")


def test_verify_relators_counts_match_presentation():
    from nmcg.presentations import nonorientable_mcg_presentation

    for g in (3, 4):
        out = verify_relators(g)
        assert len(out) == len(nonorientable_mcg_presentation(g, 1).relators)
        assert all(isinstance(v, Verdict) and v.ok for v in out)


def test_boundary_fixation_covers_all_generators():
    from nmcg.presentations import nonorientable_mcg_presentation

    out = boundary_fixation(5)
    labels = [v.label for v in out]
    assert labels == [
        x.label() for x in nonorientable_mcg_presentation(5, 1).generators
    ]
    assert all(v.ok for v in out)


def test_tier1_entry_verifies():
    v = verify_entry(_entry(4, 1, "C4a(1)"))
    assert v.ok and v.tier == 1 and v.genus == 4 and v.boundary == 1


def test_tier2_wrong_pin_fails_verdict():
    e = _entry(4, 1, "B7(4,closed)")
    good = verify_entry(e)
    assert good.ok and "w^1" in good.detail
    bad = verify_entry(dataclasses.replace(e, twist=3))
    assert not bad.ok, "a wrong stated exponent must fail the verdict"
    assert "w^3" in bad.detail


def test_tier2_honest_failure_is_not_rescued_by_pin():
    # B4 filed at tier 2 is false at (4,1): its twist curve surrounds
    # crosscaps 1..3, not the boundary. The catalogue files it at tier 3
    # of (4,0), so the tier-2 claim is built here; no stated exponent may
    # rescue it
    for k in range(-3, 4):
        e = Entry("B4", (), 4, 1, power(urun(1, 2), 3), (), 2, k)
        v = verify_entry(e)
        assert not v.ok and v.tier == 2, f"twist {k} rescued the B4 verdict"


def test_tier3_homology_gate_blocks_corrupted_words(monkeypatch):
    e = _entry(4, 0, "D")
    corrupted = dataclasses.replace(e, lhs=e.lhs + ((e.lhs[0][0], 1),))
    v = verify_entry(corrupted)
    assert not v.ok, "corrupting a relator must fail some stage"


def test_verify_catalogue_tier_filter():
    out = verify_catalogue(5, 1, tiers=(1,))
    assert out and all(v.tier == 1 for v in out)
    everything = verify_catalogue(5, 1)
    assert len(everything) == len(catalogue(5, 1))


def _letter_mutants(e):
    """e with one a/u/b letter inverted, for each such letter in turn.

    These letters have infinite order, so each mutant differs from the true
    relation by a conjugate of a nontrivial square and is false. Named
    letters are left alone: r_g is an involution in the closed group."""
    w = e.word
    for i, (gen_, sign) in enumerate(w):
        if gen_.fam in "aub":
            yield i, Entry(e.tag, e.params, e.genus, 0,
                           w[:i] + ((gen_, -sign),) + w[i + 1:], (), 3)


def test_tier3_rejects_every_single_letter_inversion():
    import re
    import time

    t0 = time.perf_counter()
    refuted = gated = 0
    wrong = []
    for g in (4, 5, 6):
        for e in catalogue(g, 0):
            if e.tier != 3:
                continue
            for i, m in _letter_mutants(e):
                v = verify_entry(m)
                if v.detail.startswith("homology gate") and not v.ok:
                    gated += 1
                elif not v.ok and re.search(r"^Refuted: .* x_\d+$", v.detail):
                    refuted += 1
                else:
                    wrong.append(f"({g},0) {e.label()} letter {i}: {v.ok} {v.detail}")
    dt = time.perf_counter() - t0
    assert not wrong, "mutants not rejected:\n" + "\n".join(wrong)
    assert refuted and gated, (refuted, gated)
    assert dt < 10.0, f"mutation sweep exceeded its 10s budget: {dt:.2f}s"


def test_tier1_rejects_an_extra_half_twist_on_a_factored_side():
    # Delta_k (k >= 2) is a nontrivial mapping class and the punctured
    # representation is faithful, so side * Delta_k breaks every relation
    mutants = 0
    wrong = []
    for g in (5, 6, 7, 8):
        for e in catalogue(g, 1):
            if e.tier != 1:
                continue
            for field in ("lhs", "rhs"):
                side = getattr(e, field)
                if not isinstance(side, Factored):
                    continue
                for k in range(2, g + 1):
                    bad = Factored(side.parts + ((delta_word(k), 1),))
                    v = verify_entry(dataclasses.replace(e, **{field: bad}))
                    mutants += 1
                    if v.ok or v.detail != "sides differ in the punctured representation":
                        wrong.append(f"({g},1) {e.label()} {field}*Delta_{k}: {v.detail}")
    assert not wrong, "mutants not rejected:\n" + "\n".join(wrong)
    assert mutants > 1000


def _side_mutants(e):
    """e with one a/u/b letter of one side inverted or deleted, for each
    such letter in turn.

    The (g,1) group is torsion-free and the punctured representation is
    faithful, so each mutant side is another mapping class and the
    mutated relation is false at the entry's stated exponent."""
    for field in ("lhs", "rhs"):
        w = getattr(e, field)
        for i, (gen_, sign) in enumerate(w):
            if gen_.fam in "aub":
                for letter in (((gen_, -sign),), ()):
                    yield dataclasses.replace(e, **{field: w[:i] + letter + w[i + 1:]})


def _sweep(entries):
    mutants, survivors = 0, []
    for e in entries:
        for m in _side_mutants(e):
            mutants += 1
            v = verify_entry(m)
            if v.ok or v.tier != e.tier:
                survivors.append(f"({e.genus},1) {e.label()} {m.lhs} = {m.rhs}: {v.detail}")
    return mutants, survivors


def test_tier1_rejects_every_single_letter_mutant():
    import time

    from nmcg.presentations import nonorientable_mcg_presentation

    t0 = time.perf_counter()
    entries = []
    for g in (4, 5, 6):
        entries += [e for e in catalogue(g, 1) if e.tier == 1]
        entries += [Entry(r.tag, r.params, g, 1, r.lhs, r.rhs, 1)
                    for r in nonorientable_mcg_presentation(g, 1).relators]
    mutants, survivors = _sweep(entries)
    dt = time.perf_counter() - t0
    assert not survivors, "mutants not rejected:\n" + "\n".join(survivors[:20])
    assert mutants > 7000, mutants
    assert dt < 10.0, f"tier-1 mutation sweep exceeded its 10s budget: {dt:.2f}s"


def test_tier2_rejects_letter_mutants_and_wrong_twists():
    import time

    t0 = time.perf_counter()
    tier2 = [e for g in range(3, 9) for e in catalogue(g, 1) if e.tier == 2]
    mutants, survivors = _sweep(tier2)
    assert not survivors, "mutants not rejected:\n" + "\n".join(survivors[:20])
    assert mutants > 700, mutants
    # conjugation by w^k determines k from genus 2 on, so every other
    # stated exponent is false
    wrong = 0
    for e in (e for g in range(2, 13) for e in catalogue(g, 1) if e.tier == 2):
        for k in range(-3, 4):
            if k != e.twist:
                wrong += 1
                v = verify_entry(dataclasses.replace(e, twist=k))
                if v.ok:
                    survivors.append(f"({e.genus},1) {e.label()} twist {k}: {v.detail}")
    dt = time.perf_counter() - t0
    assert not survivors, "wrong exponents not rejected:\n" + "\n".join(survivors)
    assert wrong >= 144, wrong
    assert dt < 5.0, f"tier-2 mutation sweep exceeded its 5s budget: {dt:.2f}s"


def test_tier3_guards_survive_optimize():
    # Refuted is sound only under C'(1/6), i.e. genus >= 4, and only tiers
    # 1-3 are verifiable; python -O strips asserts, so these guards, and
    # those of the closed catalogue, the letter and table builders, the
    # presentation, Smith normal form and coset enumeration, must raise
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import json
from nmcg.abelianized import smith_diagonal
from nmcg.catalogue import Entry, catalogue
from nmcg.cosets import coset_enumeration
from nmcg.homology_action import f2_matrix
from nmcg.pi1_action import crosscap_transposition, curve_twist
from nmcg.presentations import Presentation, Relator, chain_word, nonorientable_mcg_presentation
from nmcg.verify import verify_entry
from nmcg.words import gen, lit, named, parse

e = next(e for e in catalogue(4, 0) if e.label() == "D")
w = e.word
i = next(i for i, (x, s) in enumerate(w) if x.fam == "u")
mutant = Entry("D", (), 4, 0, w[:i] + ((w[i][0], -w[i][1]),) + w[i + 1:], (), 3)
v = verify_entry(mutant)
out = {"mutant": [v.ok, v.detail]}
for key, entry in (("genus3", Entry("X", (), 3, 0, parse("1"), (), 3)),
                   ("tier4", Entry("X", (), 4, 0, parse("1"), (), 4))):
    try:
        out[key] = ["returned", verify_entry(entry).ok]
    except ValueError as exc:
        out[key] = ["ValueError", str(exc)]
foreign = Presentation(0, 0, (gen("a", 1),), (Relator("X", (), parse("a1 a2")),))
for key, call in (("closed3", lambda: catalogue(3, 0)), ("gen", lambda: gen("z", 1)),
                  ("named", lambda: named("")), ("lit", lambda: lit(gen("a", 1), 2)),
                  ("u4", lambda: crosscap_transposition(4, 4)),
                  ("curve", lambda: curve_twist(1, 6, 4)),
                  ("f2u0", lambda: f2_matrix(parse("u0"), 4)),
                  ("chain", lambda: chain_word(1, 3)),
                  ("boundary2", lambda: nonorientable_mcg_presentation(4, 2)),
                  ("ragged", lambda: smith_diagonal([[1, 2], [3]], 2)),
                  ("foreign", lambda: coset_enumeration(foreign))):
    try:
        out[key] = ["returned", repr(call())]
    except ValueError as exc:
        out[key] = ["ValueError", str(exc)]
print(json.dumps(out))
"""
    src = str(Path(verify_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    ok, detail = out["mutant"]
    assert not ok and detail.startswith("Refuted"), detail
    assert out["genus3"][0] == "ValueError" and "genus >= 4" in out["genus3"][1]
    assert out["tier4"][0] == "ValueError" and "tier 4" in out["tier4"][1]
    assert out["closed3"][0] == "ValueError" and "genus >= 4" in out["closed3"][1]
    assert out["gen"][0] == "ValueError" and "'z'" in out["gen"][1]
    assert out["named"][0] == "ValueError" and "nonempty" in out["named"][1]
    assert out["lit"][0] == "ValueError" and "sign" in out["lit"][1]
    assert out["u4"][0] == "ValueError" and "u_4" in out["u4"][1]
    assert out["curve"][0] == "ValueError" and "1..6" in out["curve"][1]
    assert out["f2u0"][0] == "ValueError" and "u_0" in out["f2u0"][1]
    assert out["chain"][0] == "ValueError" and "3" in out["chain"][1]
    assert out["boundary2"][0] == "ValueError" and "boundary" in out["boundary2"][1]
    assert out["ragged"][0] == "ValueError" and "ragged" in out["ragged"][1]
    assert out["foreign"][0] == "ValueError" and "a2" in out["foreign"][1]
