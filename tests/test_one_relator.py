"""One-relator quotient of the crosscap generators: Dehn reduction,
quotient equality, and the exact innerness decision."""

from nmcg.one_relator import (
    REFUTED,
    VERIFIED,
    dehn_reduce,
    equal_in_quotient,
    find_inner_conjugator,
)
from nmcg.pi1_action import (
    boundary_word,
    conjugation_table,
    evaluate,
    identity_table,
)
from nmcg.words import inverse, mul, parse

_G = 5
_REL = tuple(c for i in range(1, _G + 1) for c in (i, i))  # x1^2 ... xg^2


def test_relator_word_reduces_to_nothing():
    assert dehn_reduce(_REL, _G) == ()
    assert dehn_reduce(inverse(_REL), _G) == ()
    assert dehn_reduce((), _G) == ()


def test_conjugates_of_relator_die():
    for conj in ((1,), (2, -3), (5, 4, 3)):
        w = mul(conj, _REL, inverse(conj))
        assert equal_in_quotient(w, (), _G), f"conjugate by {conj} survived"


def test_right_multiplication_by_relator_is_invisible():
    w = (1, 2, -4)
    assert equal_in_quotient(mul(w, _REL), w, _G)
    assert equal_in_quotient(mul(_REL, w), w, _G)


def test_quotient_equality_negative():
    assert not equal_in_quotient((1,), (), _G)
    assert not equal_in_quotient((1, 2), (2, 1), _G)


def test_find_inner_conjugator_verifies_known_conjugations():
    for v in ((1,), (1, 2), (3, -2, 1), (5, 5)):
        table = conjugation_table(v, _G)
        res = find_inner_conjugator(table, _G)
        assert res.status == VERIFIED, f"missed conjugation by {v}"
        assert conjugation_table(res.conjugator, _G) == table, (
            "returned conjugator does not induce the table"
        )


def test_find_inner_conjugator_identity():
    res = find_inner_conjugator(identity_table(_G), _G)
    assert res.status == VERIFIED
    assert equal_in_quotient(res.conjugator, (), _G)


def test_non_inner_table_is_not_verified():
    # an elementary twist acts nontrivially on homology, so it cannot be inner
    table = evaluate(parse("a1"), _G)
    res = find_inner_conjugator(table, _G)
    assert res.status == REFUTED


def test_boundary_twist_is_inner_in_quotient():
    # conjugation by the full boundary word is trivial only modulo the relator
    w = boundary_word(_G)
    table = conjugation_table(w, _G)
    res = find_inner_conjugator(table, _G)
    assert res.status == VERIFIED
