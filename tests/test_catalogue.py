"""Derived-relation catalogue: labels, tiers, and the relation index the
replayer rewrites against."""

from nmcg.catalogue import KMAX, catalogue, relation_index
from nmcg.verify import fixture_key, pinned_exponents
from nmcg.words import free_reduce, parse


def test_labels_are_unique_per_surface():
    for g in range(3, 9):
        for n in (1, 0):
            if n == 0 and g < 4:
                continue
            labels = [e.label() for e in catalogue(g, n)]
            assert len(labels) == len(set(labels)), f"duplicate labels at ({g},{n})"


def test_entries_carry_consistent_metadata():
    for g in (3, 5, 7):
        for e in catalogue(g, 1):
            assert e.genus == g and e.boundary == 1
            assert e.tier in (1, 2, 3)
            assert e.word == free_reduce(e.word)
            # degenerate instances may have coinciding sides (empty quotient
            # word) but never empty statements
            assert e.lhs or e.rhs, f"{e.label()}: empty entry"


def test_smallgenus_tier_maps_are_pinned():
    tiers3 = {
        e.label(): e.tier for e in catalogue(3, 1) if e.label().startswith("smallgenus")
    }
    assert tiers3 == {f"smallgenus(g3n1,{k})": 1 for k in
                      ("i", "ii", "iii", "iv", "v", "vi", "vii")}
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
            ["G1", "G2", "G3"] if g == 4 else []
        ))
        assert tier2 == expected, f"tier-2 set at genus {g}: {tier2}"
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


def test_fixture_keys_resolve():
    exps = pinned_exponents()
    tier2_keys = set()
    for g in range(3, 9):
        for e in catalogue(g, 1):
            if e.tier != 2:
                continue
            tier2_keys.add(fixture_key(e))
            assert fixture_key(e) in exps, f"no pinned exponent for {fixture_key(e)}"
    stale = sorted(set(exps) - tier2_keys)
    assert not stale, f"pinned exponents name no tier-2 entry: {stale}"
    assert KMAX == 4
