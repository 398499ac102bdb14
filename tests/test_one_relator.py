"""One-relator quotient of the crosscap generators: Dehn reduction,
quotient equality, and the exact innerness decision."""

from hypothesis import example, given, settings, strategies as st

import nmcg.one_relator as one_relator
from nmcg.catalogue import Entry, catalogue
from nmcg.one_relator import (
    REFUTED,
    VERIFIED,
    _tables,
    cyclic_dehn_reduce,
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
from nmcg.verify import verify, verify_entry
from nmcg.words import free_reduce, gen_of, inverse, mul, parse

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


def test_every_dehn_reduction_gets_a_freely_reduced_word(monkeypatch):
    # dehn_reduce takes reduced words, as words.mul does, and never
    # re-scans them: every caller on the tier-3 path must pass one
    seen, real = [], dehn_reduce
    monkeypatch.setattr(one_relator, "dehn_reduce", lambda w, g: seen.append(w) or real(w, g))
    verdicts = [v for g in range(4, 13) for v in verify(g, 0, tiers=(3,))]
    assert verdicts and all(v.ok for v in verdicts)
    refuted = 0
    for g in (4, 5, 6):
        for e in catalogue(g, 0):
            if e.tier != 3:
                continue
            w = e.word
            for i, c in enumerate(w):
                if gen_of(c).fam in "aub":
                    m = Entry(e.tag, e.params, g, 0, w[:i] + (-c,) + w[i + 1 :], (), 3)
                    refuted += not verify_entry(m).ok
    assert refuted > 700, refuted
    assert len(seen) > 3000, len(seen)
    bad = [w for w in seen if w != free_reduce(w)]
    assert not bad, f"{len(bad)} unreduced inputs, first {bad[0]}"


def _rescanning_dehn_reduce(word, g):
    """The reduction before dehn_reduce took reduced words: free_reduce
    on entry and after every rewrite, the same rewrite order."""
    tables = _tables(g)
    w = free_reduce(word)
    changed = True
    while changed:
        changed = False
        for L in range(min(len(w), 2 * g), g, -1):
            tab = tables[L]
            for pos in range(len(w) - L + 1):
                repl = tab.get(w[pos : pos + L])
                if repl is not None:
                    w = free_reduce(w[:pos] + repl + w[pos + L :])
                    changed = True
                    break
            if changed:
                break
    return w


@st.composite
def _genus_and_word(draw):
    """(g, w): g in 4..9 and w a freely reduced word in x_1..x_g, glued
    from random letters and rotated pieces of the relator x_1^2...x_g^2
    or its inverse, of length 1..2g+3 (so some wrap past a full turn).
    Some chunks are conjugated by a letter, so that the letters around a
    rewritten piece cancel once it is gone."""
    g = draw(st.integers(4, 9))
    rel = boundary_word(g)
    letters = st.sampled_from((*range(1, g + 1), *range(-g, 0)))
    out = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            base = draw(st.sampled_from((rel, inverse(rel))))
            r = draw(st.integers(0, 2 * g - 1))
            rot = base[r:] + base[:r]
            chunk = (rot + rot)[: draw(st.integers(1, 2 * g + 3))]
        else:
            chunk = (draw(letters),)
        if draw(st.booleans()):
            x = draw(letters)
            chunk = (x, *chunk, -x)
        out.extend(chunk)
    return g, free_reduce(out)


# rare under the strategy, so pinned: windows of 5 and 6 letters, and
# the longer is rewritten first; then two windows of the same length,
# and the leftmost is rewritten first
@example((4, (4, 4, 1, 1, 2, 3, 3, 4, 4, 1)))
@example((4, (1, 2, 2, 3, 3, 3, 4, 4, 1)))
@example((5, (-3, -3, -2, -2, -1, -1, -1, -5, -5, -4, -4)))
@settings(max_examples=400, deadline=None)
@given(_genus_and_word())
def test_dehn_reduce_keeps_the_rescanning_normal_form(gw):
    # printed tier-3 conjugators depend on the normal form reached, so
    # rewriting by mul must reach the same word as re-scanning did
    g, w = gw
    assert dehn_reduce(w, g) == _rescanning_dehn_reduce(w, g)


def test_cyclic_dehn_reduce_finds_a_piece_across_the_end():
    # x4 x4 x5 x5 | x1 x1 x2 is 7 > 5 letters of the relator at g = 5,
    # split over the end of a word that is itself Dehn-reduced
    w = (1, 1, 2, -3, 4, 4, 5, 5)
    assert dehn_reduce(w, _G) == w
    q, c = cyclic_dehn_reduce(w, _G)
    assert (q, c) == ((1, 1, 2, -3), (-3, -3, -2, -3))
    assert equal_in_quotient(mul(q, c, inverse(q)), w, _G)
