"""Derived-relation catalogue: labels, tiers, and the relation index the
replayer rewrites against."""

from nmcg.catalogue import catalogue, relation_index
from nmcg.words import free_reduce, parse


def test_no_tier1_entry_has_the_same_word_on_both_sides():
    # such an entry passes whatever the tables compute: a silent pass
    same = set()
    for n, g0 in ((1, 1), (0, 4)):
        for g in range(g0, 25):
            same |= {e.label() for e in catalogue(g, n)
                     if e.tier == 1 and tuple(e.lhs) == tuple(e.rhs)}
    assert not same, f"tautological tier-1 entries: {sorted(same)}"


def _assert_reduced(word, where, seen):
    """word and, recursively, every part of a Factored word are freely
    reduced; shared parts (the cached Delta_k and r_g) are checked once."""
    if id(word) in seen:
        return
    seen.add(id(word))
    assert tuple(word) == free_reduce(word), f"{where}: unreduced word or part"
    for part, _ in getattr(word, "parts", ()):
        _assert_reduced(part, where, seen)


def test_entries_carry_consistent_metadata():
    # the builders' words are trusted as reduced: this is the check
    for n, g0 in ((1, 1), (0, 4)):
        for g in range(g0, 25):
            entries, seen = catalogue(g, n), set()
            for e in entries:
                where = f"({g},{n}) {e.label()}"
                assert e.genus == g and e.boundary == n
                assert e.tier in (1, 2, 3)
                assert e.lhs or e.rhs, f"{where}: empty entry"
                for side in (e.lhs, e.rhs, e.word):
                    _assert_reduced(side, where, seen)


def test_smallgenus_tier_maps_are_pinned():
    tiers3 = {
        e.label(): e.tier for e in catalogue(3, 1) if e.label().startswith("smallgenus")
    }
    # (ii) and (iv) are A2(1) and star(2), which are checked under those labels
    assert tiers3 == {f"smallgenus(g3n1,{k})": 1 for k in ("i", "iii", "v", "vi", "vii")}
    tiers4 = {
        e.label(): e.tier for e in catalogue(4, 0) if e.label().startswith("smallgenus")
    }
    assert tiers4 == {
        "smallgenus(g4n0,i)": 1,
        "smallgenus(g4n0,ii)": 1,
        "smallgenus(g4n0,iii)": 3,
        "smallgenus(g4n0,iv)": 3,
        "smallgenus(g4n0,v)": 3,
        "smallgenus(g4n0,vi)": 1,
        "smallgenus(g4n0,vii)": 1,
        "smallgenus(g4n0,viii)": 3,
        "smallgenus(g4n0,ix)": 3,
    }


def test_closed_catalogue_families():
    tags = {e.label().split("(")[0] for e in catalogue(6, 0)}
    for tag in ("D", "Da", "B3", "B4", "B4a", "B4b", "E2a", "E3a", "E4a",
                "E5", "E6", "chain3", "lantern6"):
        assert tag in tags, f"missing closed family {tag} at genus 6"


def test_tier2_entries_are_the_boundary_words():
    for g in range(3, 9):
        tier2 = sorted(
            e.label() for e in catalogue(g, 1) if e.tier == 2
        )
        expected = sorted(["B3", f"B7({g},closed)"] + (
            ["G2", "G3"] if g == 4 else []
        ))
        assert tier2 == expected, f"tier-2 set at genus {g}: {tier2}"
    # G1 holds exactly at (4,1), with no boundary twist
    assert [e.tier for e in catalogue(4, 1) if e.label() == "G1"] == [1]
    # B4 holds only once the boundary is capped: it is a closed relation
    for g in range(4, 9):
        tiers = [e.tier for e in catalogue(g, 0) if e.label() == "B4"]
        assert tiers == [3], f"B4 at ({g},0) has tiers {tiers}, expected [3]"


def test_relation_index_contains_defining_and_derived_relations():
    ri = relation_index(4, 1)
    assert ("A7", ()) in ri
    assert ("C2", (1,)) in ri
    assert ("starstar", (2,)) in ri
    lhs, rhs = ri[("A7", ())]
    assert lhs == parse("b0") and rhs == parse("a1")
    for (tag, params), (lhs, rhs) in ri.items():
        assert isinstance(tag, str) and isinstance(params, tuple)
        assert lhs or rhs, f"{tag}{params}: both sides empty"


def test_tier2_entries_state_a_twist_and_fixtures_hold_only_scripts():
    from nmcg.replay import SCRIPT_DIR

    for g in range(1, 13):
        for e in catalogue(g, 1):
            if e.tier == 2:
                assert e.twist != 0, f"({g},1) {e.label()} states no twist"
            else:
                assert e.twist == 0, f"({g},1) tier-1 {e.label()} states twist {e.twist}"
    assert [p.name for p in SCRIPT_DIR.parent.iterdir()] == ["scripts"]
