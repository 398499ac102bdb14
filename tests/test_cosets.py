"""Coset enumeration: finite groups with known orders, the enumeration
cap, the permutation action and the CSV dump."""

import pytest

from nmcg.cosets import CapExceeded, coset_enumeration, group_order
from nmcg.presentations import (
    Presentation,
    Relator,
    braid_presentation,
    nonorientable_mcg_presentation,
)
from nmcg.words import gen, gen_of, letter, parse


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


def test_permutation_action_is_consistent():
    table = coset_enumeration(_S3)
    pos = {letter(x): i for i, x in enumerate(_S3.generators)}
    for g_, i in pos.items():
        # columns 2i and 2i+1 of the rows are the actions of gen_i and gen_i^-1
        perm = [row[2 * i] for row in table.rows]
        assert sorted(perm) == list(range(table.index())), (
            f"{gen_of(g_).label()} is not a permutation of the cosets"
        )
        assert all(table.rows[perm[c]][2 * i + 1] == c for c in range(table.index()))
    # relators act trivially on the coset space
    for r in _S3.relators:
        for c in range(table.index()):
            image = c
            for x in reversed(r.word):
                image = table.rows[image][2 * pos[abs(x)] + (x < 0)]
            assert image == c, f"{r.tag} moves coset {c}"


def test_cap_exceeded():
    free = _pres([], "a1 a2")
    with pytest.raises(CapExceeded):
        coset_enumeration(free, max_cosets=50)


def test_csv_dump():
    table = coset_enumeration(_S3)
    lines = table.to_csv().strip().splitlines()
    assert lines[0].startswith("coset,")
    assert len(lines) == table.index() + 1


def test_mapping_class_group_orders():
    assert group_order(nonorientable_mcg_presentation(1, 0)) == 1
    assert group_order(nonorientable_mcg_presentation(1, 1)) == 1
    assert group_order(nonorientable_mcg_presentation(2, 0)) == 4
    assert group_order(braid_presentation(3, spherical=True)) == 6


def test_identity_subgroup_equals_group_order():
    table = coset_enumeration(_S3)
    assert table.index() == 6


def test_the_finite_mapping_class_groups_fit_a_cap_equal_to_their_order():
    # the cap bounds every row ever allocated, and nothing rescues a run
    # that hits it, so this pins HLT's allocation on the finite cases
    finite = {(1, 0): 1, (1, 1): 1, (2, 0): 4}
    for (g, n), order in finite.items():
        assert coset_enumeration(nonorientable_mcg_presentation(g, n), max_cosets=order).index() == order
    for g in range(1, 7):
        for n in (0, 1):
            if (g, n) not in finite:
                with pytest.raises(CapExceeded):
                    coset_enumeration(nonorientable_mcg_presentation(g, n), max_cosets=2000)
