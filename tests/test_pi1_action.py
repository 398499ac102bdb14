"""Punctured-surface representation: automorphism tables, evaluation,
boundary behaviour, and conjugation by powers of the boundary word."""

from hypothesis import given, settings, strategies as st

from nmcg.catalogue import catalogue
from nmcg.pi1_action import (
    Evaluator,
    boundary_conjugate,
    boundary_word,
    compose,
    conjugation_table,
    curve_twist,
    evaluate,
    fixes_boundary,
    identity_table,
    xinv,
    xmul,
    xpow,
    xreduce,
    xsub,
)
from nmcg.presentations import (
    a,
    delta_word,
    expansion_env,
    nonorientable_mcg_presentation,
    r_word,
    u,
)
from nmcg.words import Factored, gen, lit, parse

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


@given(st.lists(st.lists(_xletters, max_size=12).map(xreduce), max_size=6))
def test_xmul_of_reduced_parts_is_the_reduced_concatenation(parts):
    assert xmul(*parts) == xreduce(sum(parts, ()))


def test_factored_sides_evaluate_to_their_flat_words():
    # part tables (cached, powers by squaring) against the flat letters
    # evaluated one by one by an Evaluator that has cached nothing
    checked = 0
    for g in list(range(4, 13)) + [16]:
        env = expansion_env(g, 1)
        for e in catalogue(g, 1):
            for side in (e.lhs, e.rhs):
                if isinstance(side, Factored):
                    flat = Evaluator(g, env).evaluate(tuple(side))
                    assert evaluate(side, g, env) == flat, (g, e.label())
                    checked += 1
    assert checked > 1000


def test_factored_negative_and_nested_powers():
    g = 7
    env = expansion_env(g, 1)
    d5 = delta_word(5)
    inner = Factored(((d5, -1), (u(2), 3), (a(4), -2)))
    for w in (
        Factored(((d5, -1),)),
        Factored(((d5, 3), (a(1), -1), (delta_word(4), -2))),
        Factored(((inner, -3), (r_word(g), 2), (inner, 1))),
        Factored(((d5, 0),)),
    ):
        assert evaluate(w, g, env) == Evaluator(g, env).evaluate(tuple(w))
    assert Factored(((d5, 2), (d5, -2))) == ()


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


def test_curve_twists_are_inverse_pairs_fixing_the_boundary():
    for g in range(4, 13):
        ident, w = identity_table(g), boundary_word(g)
        for k in range(1, g):
            for m in range(2, g - k + 2, 2):
                plus, minus = curve_twist(k, m, g, 1), curve_twist(k, m, g, -1)
                assert compose(plus, minus) == ident == compose(minus, plus), (g, k, m)
                assert xsub(w, plus) == w == xsub(w, minus), (g, k, m)


def test_all_generators_fix_boundary_g3_to_g5():
    for g in (3, 4, 5):
        pres = nonorientable_mcg_presentation(g, 1)
        env = expansion_env(g, 1)
        for gen_ in pres.generators:
            t = evaluate(lit(gen_), g, env)
            assert fixes_boundary(t, g), f"{gen_.label()} moves the boundary at g={g}"


def test_boundary_conjugate_follows_a_table_by_conjugation_by_w_k():
    g = 4
    w = boundary_word(g)
    a1 = evaluate(parse("a1"), g)
    assert boundary_conjugate(a1, g, 0) is a1
    seen = set()
    for k in range(-3, 6):
        wk = xpow(w, k)
        assert boundary_conjugate(identity_table(g), g, k) == conjugation_table(wk, g)
        t = boundary_conjugate(a1, g, k)
        assert t == tuple(xmul(wk, im, xinv(wk)) for im in a1), f"wrong table at k = {k}"
        assert fixes_boundary(t, g)
        seen.add(t)
    # conjugation by w^k determines k, 5 included: there is no search bound
    assert len(seen) == 9


def test_boundary_word_is_crosscap_norm():
    assert boundary_word(3) == (1, 1, 2, 2, 3, 3)
