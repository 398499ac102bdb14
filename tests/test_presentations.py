"""Presentation builders: relator inventories, abbreviation expansion,
Tietze elimination, and the serialization surface."""

import json

import pytest

from nmcg.abelianized import h1
from nmcg.catalogue import catalogue
from nmcg.cosets import group_order
from nmcg.presentations import (
    Entry,
    Presentation,
    a,
    braid_presentation,
    delta_word,
    expansion_env,
    arun,
    nonorientable_mcg_presentation,
    r_word,
    tietze_eliminate,
    urun,
    urun_down,
)
from nmcg.words import Factored, concat, free_reduce, gen, gen_of, inverse, named, parse


def test_delta_word_is_the_flat_half_twist_recursion():
    for k in range(21):
        flat = ()
        for m in range(k, 1, -1):
            flat = concat(flat, urun(1, m - 1))
        dk = delta_word(k)
        assert isinstance(dk, Factored) and dk == flat and len(dk) == k * (k - 1) // 2
        assert delta_word(k) is dk, "one shared object per k"


def test_r_word_is_a_shared_factored_part():
    for g in range(2, 21):
        rg = r_word(g)
        assert isinstance(rg, Factored) and r_word(g) is rg
        assert rg == concat(arun(1, g - 1), urun_down(g - 1, 1))


def test_generator_inventory_grows_with_genus():
    # present prints the generators in the order they are built
    for g in range(3, 33):
        for n in (1, 0):
            if (g, n) == (3, 0):
                continue  # the small-genus presentation has its own generators
            assert nonorientable_mcg_presentation(g, n).generator_labels() == (
                [f"a{i}" for i in range(1, g)]
                + [f"u{i}" for i in range(1, g)]
                + [f"b{j}" for j in range((g - 2) // 2 + 1)]
            ), f"generators out of order at ({g},{n})"


def test_relators_are_built_in_tag_order():
    # present prints the relators in the order they are built
    tags = "A1 A2 A3 A4 A5 A6 A7 A8 A9a A9b B1 B2 B3 B4 C1 C2 C3 C4 C5 C6 C7 C8 D".split()
    for g in range(3, 33):
        for n in (1, 0):
            if (g, n) == (3, 0):
                continue  # the small-genus presentation has its own tags
            keys = [(tags.index(r.tag), r.params) for r in nonorientable_mcg_presentation(g, n).relators]
            assert all(k < k1 for k, k1 in zip(keys, keys[1:])), f"relators out of order at ({g},{n})"


def test_relator_counts_are_stable():
    counts = {
        (g, n): len(nonorientable_mcg_presentation(g, n).relators)
        for g in range(3, 9)
        for n in (1, 0)
    }
    # closing the boundary adds the three boundary-word relators (g >= 4);
    # genus 3 has its own shorter closed presentation
    for g in range(4, 9):
        assert counts[(g, 0)] == counts[(g, 1)] + 3, (
            f"genus {g}: closed form should add exactly three relators, got {counts}"
        )
    assert [counts[(g, 1)] for g in range(3, 9)] == [7, 18, 30, 45, 59, 77]
    assert counts[(3, 0)] == 5


def test_relator_sides_parse_and_reduce():
    # each relator's record holds both sides as built, so this is the
    # check that the builders emit freely reduced words. Below g = 3 the spherical braid
    # relators are powers of the empty run u_1..u_{g-2}, so they start at 3
    pres = [nonorientable_mcg_presentation(g, n) for g in range(1, 25) for n in (0, 1)]
    pres += [braid_presentation(g, spherical=True) for g in range(3, 25)]
    tags = set()
    for p in pres:
        for r in p.relators:
            where = f"({p.genus},{p.boundary}) {r.tag}{r.params}"
            tags.add(r.tag)
            for side in (r.lhs, r.rhs, r.word):
                assert type(side) is tuple and side == free_reduce(side), f"{where}: unreduced side"
            assert r.word, f"{where}: empty relator"
            assert ":" in r.text() and "=" in r.text()
    assert {"A7", "B3", "D", "smallgenus"} <= tags


def test_relator_word_is_built_once():
    # relators and catalogue entries are one record type, with one cached word
    records = [*nonorientable_mcg_presentation(6, 1).relators, *catalogue(8, 1), *catalogue(8, 0)]
    for r in records:
        twin = Entry(r.tag, r.params, r.genus, r.boundary, r.lhs, r.rhs, r.tier, r.twist)
        assert r.word is r.word
        assert r.word == concat(r.lhs, inverse(r.rhs))
        # twin has not built its word: equality, hashing and text ignore it
        assert r == twin and hash(r) == hash(twin) and r.text() == twin.text()
        assert repr(r) == repr(twin)


def test_relator_tiers_are_stamped_where_they_are_built():
    # every record carries its presentation's (genus, boundary)
    pres = [nonorientable_mcg_presentation(g, n) for g in range(1, 25) for n in (0, 1)]
    pres += [braid_presentation(g, spherical=s) for g in range(3, 25) for s in (False, True)]
    for p in pres:
        assert {(r.genus, r.boundary) for r in p.relators} <= {(p.genus, p.boundary)}
        # a tier-3 relation holds only once the boundary is capped
        assert all(r.boundary == 0 for r in p.relators if r.tier == 3), (p.genus, p.boundary)
    # the relators of (2,0) and (3,0) hold only once the boundary is capped
    for g in (2, 3):
        tiers = {r.tier for r in nonorientable_mcg_presentation(g, 0).relators}
        assert tiers == {3}, (g, tiers)
    for g in range(4, 17):
        punctured = nonorientable_mcg_presentation(g, 1).relators
        assert {r.tier for r in punctured} == {1}, g
        closed = nonorientable_mcg_presentation(g, 0).relators
        assert [r.tag for r in closed if r.tier == 3] == ["B3", "B4", "D"], g
        # a closed relator at tier 1 is a punctured one, so verify(g, 1) backs it
        sides = {(r.tag, r.params, r.lhs, r.rhs) for r in punctured}
        assert all((r.tag, r.params, r.lhs, r.rhs) in sides for r in closed if r.tier == 1), g
        assert {r.tier for r in closed} == {1, 3}, g


def test_closed_catalogue_restates_the_tier3_relators():
    # verify(g, 0) decides the catalogue alone, so its B3, B4 and D must be
    # the closed presentation's own tier-3 relators: the catalogue builds
    # B3 and B4 as Factored powers, the presentation as flat powers
    def flat(records):
        return [(r.tag, r.params, tuple(r.lhs), tuple(r.rhs), r.tier) for r in records]

    for g in range(4, 25):
        relators = [r for r in nonorientable_mcg_presentation(g, 0).relators if r.tier == 3]
        entries = [e for e in catalogue(g, 0) if e.tag in ("B3", "B4", "D")]
        assert flat(entries) == flat(relators), g


def test_expansion_env_covers_abbreviations():
    env6 = expansion_env(6, 1)
    for label in ("y1", "y2", "c", "v", "r6"):
        assert named(label) in env6, f"missing abbreviation {label} at (6,1)"
    for g in range(3, 13):
        for n in (0, 1):
            assert all(k.fam != "b" for k in expansion_env(g, n)), "b_j is built from its curve"
    assert named("d") in expansion_env(3, 1), "slide abbreviation missing at (3,1)"
    for k, image in env6.items():
        assert image, f"{k.label()} expands to the empty word"


def test_a8_compares_the_curve_built_twist_with_its_word(monkeypatch):
    # b_{i+1} is built from its curve, not from a8_word(i), so a wrong
    # right side of A8 fails A8 itself, and nothing else, within the budget
    import time

    import nmcg.presentations as pres_mod
    import nmcg.verify as verify_mod

    def failing(g):
        relators = nonorientable_mcg_presentation(g, 1).relators
        return sorted(v.label for v in map(verify_mod.verify_entry, relators) if not v.ok)

    def a8_labels(g):
        pres = nonorientable_mcg_presentation(g, 1)
        return sorted(f"A8({r.params[0]})" for r in pres.relators if r.tag == "A8")

    true_a8 = pres_mod.a8_word
    start = time.perf_counter()
    for g in (8, 10, 12):
        assert failing(g) == [], g
        monkeypatch.setattr(pres_mod, "a8_word", lambda i: concat(true_a8(i), a(2 * i + 1)))
        assert a8_labels(g) and failing(g) == a8_labels(g), g
        monkeypatch.setattr(pres_mod, "a8_word", true_a8)
    assert time.perf_counter() - start < 30


def test_tietze_eliminate_toy():
    p, q = gen("a", 1), gen("a", 2)
    pres = Presentation(
        genus=0,
        boundary=0,
        generators=(p, q),
        relators=(
            Entry("def", (), 0, 0, parse("a2"), parse("a1*a1")),
            Entry("ord", (), 0, 0, parse("a2*a2*a2")),
        ),
    )
    out = tietze_eliminate(pres, q)
    assert [x.label() for x in out.generators] == ["a1"]
    assert len(out.relators) == 1
    assert free_reduce(out.relators[0].word) == parse("a1*a1*a1*a1*a1*a1"), (
        "substituted relator should become a1^6"
    )
    assert h1(out).torsion == (6,) == h1(pres).torsion


def test_tietze_eliminate_inverted_victim():
    # a2 a1^-1 a2 = 1 defines a1 through its inverse: a1 = a2^2
    p, q = gen("a", 1), gen("a", 2)
    pres = Presentation(
        genus=0,
        boundary=0,
        generators=(p, q),
        relators=(
            Entry("def", (), 0, 0, parse("a2*a1^-1*a2")),
            Entry("ord", (), 0, 0, parse("a1*a1*a1")),
        ),
    )
    out = tietze_eliminate(pres, p)
    assert [x.label() for x in out.generators] == ["a2"]
    assert [r.word for r in out.relators] == [parse("a2^6")]
    assert h1(out).torsion == (6,) == h1(pres).torsion


def test_tietze_eliminate_removes_generator_everywhere():
    pres = nonorientable_mcg_presentation(6, 1)
    out = tietze_eliminate(pres, gen("b", 2))
    assert gen("b", 2) not in out.generators
    for r in out.relators:
        assert all(gen_of(c) != gen("b", 2) for c in r.word), f"{r.tag} still uses b2"
    assert len(out.generators) == len(pres.generators) - 1
    assert len(out.relators) == len(pres.relators) - 1


def test_braid_presentation_shapes():
    pres = braid_presentation(4)
    assert len(pres.generators) == 3
    assert h1(pres).free_rank == 1 and h1(pres).torsion == (), (
        "braid abelianization must be infinite cyclic"
    )
    sph = braid_presentation(3, spherical=True)
    assert len(sph.relators) == len(braid_presentation(3).relators) + 2, (
        "spherical quotient adds the sphere relation and the involution"
    )
    assert group_order(sph) == 6


def test_spherical_braid_presentation_needs_genus_3():
    # below g = 3 its B4, and at g = 1 also B3, would be the empty relator
    for g in (1, 2):
        with pytest.raises(ValueError, match="genus >= 3"):
            braid_presentation(g, spherical=True)


def test_to_json_is_deterministic_and_loadable():
    pres = nonorientable_mcg_presentation(4, 0)
    blob = pres.to_json()
    assert blob == nonorientable_mcg_presentation(4, 0).to_json()
    doc = json.loads(blob)
    assert doc["genus"] == 4 and doc["boundary"] == 0
    assert len(doc["relators"]) == len(pres.relators)
    assert all("tag" in r and "word" in r for r in doc["relators"])


def test_closed_presentation_adds_boundary_relators():
    open_tags = [r.tag for r in nonorientable_mcg_presentation(5, 1).relators]
    closed_tags = [r.tag for r in nonorientable_mcg_presentation(5, 0).relators]
    extra = sorted(t for t in closed_tags if closed_tags.count(t) > open_tags.count(t))
    assert extra == ["B3", "B4", "D"], f"unexpected closing relators {extra}"
