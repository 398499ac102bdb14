"""Punctured-surface representation: automorphism tables, evaluation,
boundary behaviour, and the twist-exponent detector."""

from hypothesis import given, settings, strategies as st

from nmcg.pi1_action import (
    boundary_word,
    compose,
    conjugation_exponent,
    conjugation_table,
    evaluate,
    fixes_boundary,
    identity_table,
    xreduce,
    xsub,
)
from nmcg.presentations import expansion_env, nonorientable_mcg_presentation
from nmcg.words import gen, lit, parse

_G = 4
_letters = st.tuples(
    st.builds(
        gen,
        st.sampled_from("au"),
        st.integers(1, _G - 1),
    ),
    st.sampled_from((1, -1)),
)
_words = st.lists(_letters, max_size=8).map(tuple)

# reduced images of the shapes compose treats differently: empty, one
# positive letter (shared), one negative letter, and long words
_xletters = st.integers(1, _G).flatmap(lambda i: st.sampled_from((i, -i)))
_images = st.one_of(
    st.just(()),
    st.integers(1, _G).map(lambda i: (i,)),
    st.integers(1, _G).map(lambda i: (-i,)),
    st.lists(_xletters, max_size=30).map(xreduce),
)
_tables = st.lists(_images, min_size=_G, max_size=_G).map(tuple)


def test_identity_table_shape():
    for g in (1, 3, 6):
        t = identity_table(g)
        assert t == tuple((i,) for i in range(1, g + 1))
    assert evaluate((), 3) == identity_table(3)


@settings(max_examples=60, deadline=None)
@given(_words, _words)
def test_evaluate_is_a_homomorphism(v, w):
    # rightmost factor acts first, so concatenation maps to composition
    left = evaluate(v + w, _G)
    right = compose(evaluate(v, _G), evaluate(w, _G))
    assert left == right


@settings(max_examples=40, deadline=None)
@given(_words)
def test_evaluate_inverse_word_inverts_table(w):
    from nmcg.words import inverse

    assert compose(evaluate(w, _G), evaluate(inverse(w), _G)) == identity_table(_G)


@settings(max_examples=300, deadline=None)
@given(_tables, _tables)
def test_compose_is_substitution_of_every_image(t1, t2):
    # the tables need not be automorphisms
    assert compose(t1, t2) == tuple(xsub(im, t1) for im in t2)


def test_braid_relation_by_tables():
    assert evaluate(parse("a1*a2*a1"), 3) == evaluate(parse("a2*a1*a2"), 3)
    assert evaluate(parse("u1*u2*u1"), 3) == evaluate(parse("u2*u1*u2"), 3)
    # neighbouring transport: a1 u2 u1 = u2 u1 a2
    assert evaluate(parse("a1*u2*u1"), 3) == evaluate(parse("u2*u1*a2"), 3)


def test_generator_tables_are_pinned():
    # frozen letter-for-letter images; regenerate only on a deliberate
    # convention change
    from nmcg.presentations import expansion_env

    assert evaluate(parse("a1"), 3) == ((1, -2, -1), (1, 2, 2), (3,))
    assert evaluate(parse("u1"), 3) == ((1, 1, 2, -1, -1), (1,), (3,))
    assert evaluate(parse("a2"), 3) == ((1,), (2, -3, -2), (2, 3, 3))
    assert evaluate(parse("b1"), 4, expansion_env(4, 1)) == (
        (1, -4, -3, -2, -1),
        (1, 2, 3, 4, 2, 3, 4, 1, 2, -4, -3, -2, -1),
        (1, 2, 3, 4, -2, -1, -4, -4, -3, -2, -1),
        (1, 2, 3, 4, 4),
    )
    # and each preserves the boundary word exactly
    w = boundary_word(3)
    for text in ("a1", "u1", "a2"):
        assert xsub(w, evaluate(parse(text), 3)) == w


def test_all_generators_fix_boundary_g3_to_g5():
    for g in (3, 4, 5):
        pres = nonorientable_mcg_presentation(g, 1)
        env = expansion_env(g, 1)
        for gen_ in pres.generators:
            t = evaluate(lit(gen_), g, env)
            assert fixes_boundary(t, g), f"{gen_.label()} moves the boundary at g={g}"


def test_conjugation_exponent_detects_twists():
    g = 4
    assert conjugation_exponent(identity_table(g), g, 4) == 0
    from nmcg.pi1_action import xpow

    for k in (-3, -1, 1, 2, 4):
        t = conjugation_table(xpow(boundary_word(g), k), g)
        assert conjugation_exponent(t, g, 4) == k, f"missed exponent {k}"
    assert conjugation_exponent(evaluate(parse("a1"), g), g, 4) is None
    # out-of-range twist is reported as absent, not misread
    t5 = conjugation_table(xpow(boundary_word(g), 5), g)
    assert conjugation_exponent(t5, g, 4) is None


def test_boundary_word_is_crosscap_norm():
    assert boundary_word(3) == (1, 1, 2, 2, 3, 3)
