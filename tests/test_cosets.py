"""Coset enumeration: finite groups with known orders, the enumeration
cap, and the completeness check that every order passes through."""

import pytest

from nmcg import cosets
from nmcg.cosets import CapExceeded, _Enumerator, group_order
from nmcg.presentations import (
    Presentation,
    Relator,
    braid_presentation,
    nonorientable_mcg_presentation,
)
from nmcg.words import gen, parse


def _pres(relator_texts, gens):
    gens = tuple(gen(t[0], int(t[1:])) for t in gens.split())
    rels = tuple(
        Relator(f"r{i}", (), parse(t), ()) for i, t in enumerate(relator_texts)
    )
    return Presentation(genus=0, boundary=0, generators=gens, relators=rels)


_S3 = _pres(["a1*a1", "a2*a2", "a1*a2*a1*a2*a1*a2"], "a1 a2")
_Q8 = _pres(["a1*a1*a1*a1", "a1*a1*a2^-2", "a2^-1*a1*a2*a1"], "a1 a2")


def test_cyclic_group_order():
    assert group_order(_pres(["a1^5"], "a1")) == 5
    assert group_order(_pres(["a1"], "a1")) == 1


def test_dihedral_and_quaternion_orders():
    assert group_order(_S3) == 6
    assert group_order(_Q8) == 8


def _finished_s3():
    e = _Enumerator(_S3)
    e.run()
    return e, [c for c in range(len(e.tab)) if e.rep(c) == c]


def test_check_complete_rejects_a_corrupted_table():
    e, live = _finished_s3()
    assert e.check_complete() == len(live) == 6
    # a hole in a live row
    e.tab[live[0]][1] = None
    with pytest.raises(ValueError, match=f"incomplete row {live[0]}"):
        e.check_complete()
    # one entry overwritten: a1 no longer inverse to a1^-1 at coset 0
    e, live = _finished_s3()
    e.tab[0][0] = next(c for c in live if c not in (0, e.get(0, 0)))
    with pytest.raises(ValueError, match="not involutive"):
        e.check_complete()
    # a1 acting as the identity: full and involutive, but (a1 a2)^3 = a2
    e, live = _finished_s3()
    for c in live:
        e.tab[c][0] = e.tab[c][1] = c
    with pytest.raises(ValueError, match="relator open"):
        e.check_complete()


def test_identity_subgroup_equals_group_order():
    # the table is never compacted: the order counts live cosets only,
    # not the rows that coincidences killed
    e, live = _finished_s3()
    assert len(e.tab) > len(live) == group_order(_S3) == 6


def test_cap_exceeded(monkeypatch):
    monkeypatch.setattr(cosets, "MAX_COSETS", 50)
    free = _pres([], "a1 a2")
    with pytest.raises(CapExceeded):
        group_order(free)


def test_mapping_class_group_orders():
    assert group_order(nonorientable_mcg_presentation(1, 0)) == 1
    assert group_order(nonorientable_mcg_presentation(1, 1)) == 1
    assert group_order(nonorientable_mcg_presentation(2, 0)) == 4
    assert group_order(braid_presentation(3, spherical=True)) == 6


def test_the_finite_mapping_class_groups_fit_a_cap_equal_to_their_order(monkeypatch):
    # the cap bounds every row ever allocated, and nothing rescues a run
    # that hits it, so this pins HLT's allocation on the finite cases
    finite = {(1, 0): 1, (1, 1): 1, (2, 0): 4}
    for (g, n), order in finite.items():
        monkeypatch.setattr(cosets, "MAX_COSETS", order)
        assert group_order(nonorientable_mcg_presentation(g, n)) == order
    monkeypatch.setattr(cosets, "MAX_COSETS", 2000)
    for g in range(1, 7):
        for n in (0, 1):
            if (g, n) not in finite:
                with pytest.raises(CapExceeded):
                    group_order(nonorientable_mcg_presentation(g, n))
