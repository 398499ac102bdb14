"""Punctured-surface representation: automorphism tables, evaluation,
boundary behaviour, and conjugation by powers of the boundary word."""

from itertools import groupby

from hypothesis import given, settings, strategies as st

from nmcg.catalogue import catalogue
from nmcg.pi1_action import (
    Evaluator,
    _moves,
    _step,
    boundary_word,
    compose,
    conjugation_table,
    curve_twist,
    evaluate,
    evaluator,
    fixes_boundary,
    identity_table,
    prefix_basis,
    prefix_basis_inverse,
    splice,
    to_prefix_basis,
    xsub,
)
from nmcg.presentations import (
    a,
    arun,
    delta_word,
    expansion_env,
    nonorientable_mcg_presentation,
    r_word,
    u,
    urun,
)
from nmcg.words import Factored, free_reduce, gen, inverse, letter, lit, mul, named, parse, power

_G = 4
_letters = st.builds(
    letter,
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
    st.lists(_xletters, max_size=30).map(free_reduce),
)
_tables = st.lists(_images, min_size=_G, max_size=_G).map(tuple)


def _closed_powers(g):
    """The flat words of the (g,0) power relators B3, B4, B4b and E6."""
    return {
        "B3": power(urun(1, g - 1), g),
        "B4": power(urun(1, g - 2), g - 1),
        "B4b": power(urun(2, g - 1), g - 1),
        "E6": power(arun(1, g - 1), g if g % 2 == 0 else 2 * g),
    }


def test_factored_sides_evaluate_to_their_flat_words():
    # part tables (cached per exponent, powers by squaring) against the
    # flat letters evaluated one by one by an Evaluator that has cached
    # nothing, on both the (g,1) and the (g,0) catalogue
    checked = 0
    for g in list(range(4, 13)) + [16]:
        env = expansion_env(g, 1)
        ev = evaluator(g)
        # the closed powers are Factored, and their letters are the flat
        # powers they were written as, so the relations are the same
        closed = {e.label(): e for e in catalogue(g, 0)}
        for label, flat in _closed_powers(g).items():
            assert isinstance(closed[label].lhs, Factored), (g, label)
            assert closed[label].lhs == flat and closed[label].word == flat, (g, label)
        for e in catalogue(g, 1) + catalogue(g, 0):
            for side in (e.lhs, e.rhs):
                if isinstance(side, Factored):
                    flat = Evaluator(g).evaluate(tuple(side))
                    assert evaluate(side, g, env) == flat, (g, e.label())
                    assert ev.evaluate(side) == flat, ("second evaluation", g, e.label())
                    checked += 1
        if g > 8:
            continue
        # every cached part, at every exponent k in -3..4, is its flat power
        parts = {part for part, _ in ev._parts}
        assert len(parts) >= 2 * g - 3, g  # Delta_k, u_1..u_m, r_g
        for part in parts:
            for k in (-3, -2, -1, 1, 2, 3, 4):
                t = ev._power(part, k)
                assert ev._parts[(part, k)] is t is ev._power(part, k)
                assert t == Evaluator(g).evaluate(power(part, k)), (g, k)
    assert checked > 1000


def test_product_splices_a_leading_letter(monkeypatch):
    # a leading one-letter part of exponent -1, one whose remaining parts
    # are all trivial, and one that is itself a one-letter Factored, and
    # the same shapes at the end: each word's table is that of its flat
    # letters, and, once the parts are cached, the splice runs once per
    # letter that leads a product of further parts, and the letter step
    # once per letter that ends one
    import nmcg.pi1_action as pa

    calls = {"splice": 0, "_step": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(pa, name, counting(name, getattr(pa, name)))
    g = 7
    d5 = delta_word(5)
    for w, splices, steps in (
        (Factored(((u(1), -1), (d5, 1))), 1, 0),
        (Factored(((inverse(a(3)), -1), (d5, 2), (u(2), -1))), 1, 1),
        (Factored(((u(2), 1), (d5, 0), (a(1), 0))), 0, 0),
        (Factored(((Factored(((a(4), 1),)), 1), (r_word(g), 1))), 1, 0),
        (Factored(((Factored(((u(3), -1),)), -1), (u(5), 1), (d5, -1))), 2, 0),
        (Factored(((d5, 1), (a(2), 1))), 0, 1),
        (Factored(((d5, -1), (u(4), -1))), 0, 1),
        (Factored(((r_word(g), 2), (Factored(((u(3), -1),)), -1))), 0, 1),
        (Factored(((d5, 1), (a(1), 1), (u(2), -1))), 0, 2),
        (Factored(((u(1), 1), (d5, 1), (a(4), -1), (a(4), 0))), 1, 1),
        (Factored(((a(1), 1), (u(2), 1))), 1, 0),
    ):
        flat = Evaluator(g).evaluate(tuple(w))
        ev = Evaluator(g)
        for part, k in w.parts:
            if k and len(part) > 1:
                ev._power(part, k)
        calls.update(dict.fromkeys(calls, 0))
        assert ev.evaluate(w) == flat, w.parts
        assert (calls["splice"], calls["_step"]) == (splices, steps), w.parts


def test_equal_parts_share_one_cached_table(monkeypatch):
    # the part cache is keyed on letters: a second object with the same
    # letters, Factored or plain, reuses the first one's tables
    import nmcg.pi1_action as pa

    g = 7
    p1, p2 = (Factored(((urun(1, 4), 1), (delta_word(4), 1))) for _ in "12")
    assert p1 == p2 and p1 is not p2
    ev = Evaluator(g)
    t = ev.evaluate(Factored(((p1, 3),)))
    calls, compose = [], pa.compose
    monkeypatch.setattr(pa, "compose", lambda t1, t2: calls.append(1) or compose(t1, t2))
    again = [ev.evaluate(Factored(((p2, 3),))), ev.evaluate(Factored(((tuple(p1), 3),)))]
    assert not calls, f"{len(calls)} composes for a part already cached"
    assert all(a is t for a in again)


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
        assert evaluate(w, g, env) == Evaluator(g).evaluate(tuple(w))
    assert Factored(((d5, 2), (d5, -2))) == ()


def test_letter_tables_are_built_once_per_genus(monkeypatch, cold_evaluators):
    # the shared Evaluator of a genus caches each letter's table, in
    # basis x and in basis q, so each builder runs once per letter
    import nmcg.pi1_action as pa

    built = []
    for name in ("curve_twist", "crosscap_transposition"):
        fn = getattr(pa, name)
        monkeypatch.setattr(pa, name, lambda *args, fn=fn: built.append(args) or fn(*args))
    g = 6
    for _ in range(2):
        for text in ("a1", "b1", "u2", "b2^-1"):
            c = parse(text)[0]
            assert evaluate(parse(text), g) is evaluator(g).letter_table(c), text
            evaluator(g).q.letter_table(c)
    assert len(built) == 4, built


def test_named_letters_take_their_genus_words():
    # each named element abbreviates a word that depends on the genus
    # alone: the (g,0) and (g,1) expansions agree wherever both name it
    for g in range(1, 25):
        closed, punctured = expansion_env(g, 0), expansion_env(g, 1)
        for x in closed.keys() & punctured.keys():
            assert closed[x] == punctured[x], (g, x.label())
    # so, with no env, a named letter evaluates to the table of its word
    first = {"y1": 2, "y2": 3, "v": 4, "r": 4, "c": 6}  # the least genus of each name
    for g in range(2, 9):
        words = {**expansion_env(g, 0), **expansion_env(g, 1)}
        names = [f"r{g}" if x == "r" else x for x, low in first.items() if g >= low]
        for label in names + (["d"] if g in (3, 4) else []):
            x = lit(named(label))
            w = words[named(label)]
            assert evaluate(x, g) == evaluate(w, g), (g, label)
            assert evaluate(inverse(x), g) == evaluate(inverse(w), g), (g, label)


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
    assert compose(evaluate(w, _G), evaluate(inverse(w), _G)) == identity_table(_G)


@settings(max_examples=300, deadline=None)
@given(_tables, _tables)
def test_compose_is_substitution_of_every_image(t1, t2):
    # the tables need not be automorphisms
    assert compose(t1, t2) == tuple(xsub(im, t1) for im in t2)


@settings(max_examples=300, deadline=None)
@given(_tables, _tables)
def test_splice_is_compose(t1, t2):
    assert splice(_moves(t1), {}, t2) == compose(t1, t2)


@settings(max_examples=300, deadline=None)
@given(_tables, _tables)
def test_letter_step_is_compose(t1, t2):
    out = _step(t1, _moves(t2))
    assert out == compose(t1, t2)
    # an image t2 keeps is t1's image itself
    for i, (im, new) in enumerate(zip(t1, out), 1):
        assert new is im or t2[i - 1] != (i,)


def _letter_tables_and_deltas():
    """(genus, Evaluator, every a/u/b letter of either sign, the tables
    T(Delta_k) for k = 2..g) in basis x and in basis q, g = 4..12."""
    for g in range(4, 13):
        names = [f"{f}{i}" for f in "au" for i in range(1, g)]
        names += [f"b{j}" for j in range((g - 2) // 2 + 1)]
        letters = [s * parse(name)[0] for name in names for s in (1, -1)]
        for ev in (evaluator(g), evaluator(g).q):
            yield g, ev, letters, [ev.evaluate(delta_word(k)) for k in range(2, g + 1)]


def _moved_runs(moved, im):
    """The maximal runs of letters of im that are keys of moved."""
    return [tuple(run) for is_moved, run in groupby(im, moved.__contains__) if is_moved]


def test_splice_is_compose_for_every_letter_table():
    # each letter table spliced into T(Delta_k) for every k <= g, into
    # the identity, and into the letter's own inverse table, whose images
    # cancel completely, each with a fresh run cache; an image whose
    # maximal runs of moved letters all map to themselves (none, if it
    # holds no moved letter) is kept as is
    for g, ev, letters, deltas in _letter_tables_and_deltas():
        for c in letters:
            t1 = ev.letter_table(c)
            moved = _moves(t1)
            for t2 in deltas + [identity_table(g), ev.letter_table(-c)]:
                out = splice(moved, {}, t2)
                assert out == compose(t1, t2), (g, c)
                for im, new in zip(t2, out):
                    fixed = all(xsub(run, t1) == run for run in _moved_runs(moved, im))
                    assert new is im or not fixed, (g, c, im)
            assert splice(moved, {}, ev.letter_table(-c)) == identity_table(g), (g, c)


def test_splice_reuses_one_letter_run_cache():
    # the Evaluator keeps one run cache per letter and basis, which holds
    # each run's image under that letter's table alone: read back across
    # T(Delta_k) for every k <= g, the identity and the letter's own
    # inverse table, it gives compose each time, and a second round
    # finds every run it needs cached
    for g, ev, letters, deltas in _letter_tables_and_deltas():
        for c in letters:
            t1, moved, runs = ev.letter_table(c), ev._letter_moves(c), ev._letter_runs(c)
            assert runs is ev._letter_runs(c), (g, c)
            tables = deltas + [identity_table(g), ev.letter_table(-c)]
            for t2 in tables:
                assert splice(moved, runs, t2) == compose(t1, t2), (g, c)
            known = dict(runs)
            for t2 in tables:
                assert splice(moved, runs, t2) == compose(t1, t2), (g, c)
            assert runs == known, (g, c)
            assert all(im == xsub(run, t1) for run, im in runs.items()), (g, c)


def test_letter_step_is_compose_for_every_letter_table():
    # each letter table applied by a letter step after T(Delta_k) for
    # every k <= g, after the identity, and after the letter's own
    # inverse table, where every moved image cancels to one letter; an
    # image the letter does not move is kept as is
    for g, ev, letters, deltas in _letter_tables_and_deltas():
        for c in letters:
            t2 = ev.letter_table(c)
            moved = ev._letter_moves(c)
            assert moved == _moves(t2) and moved is ev._letter_moves(c), (g, c)
            for t1 in deltas + [identity_table(g), ev.letter_table(-c)]:
                out = _step(t1, moved)
                assert out == compose(t1, t2), (g, c)
                for i, (im, new) in enumerate(zip(t1, out), 1):
                    assert new is im or i in moved, (g, c, i)
            assert _step(ev.letter_table(-c), moved) == identity_table(g), (g, c)


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
    ev = Evaluator(g)
    a1 = evaluate(parse("a1"), g)
    assert ev.boundary_conjugate(a1, 0) is a1
    seen = set()
    for k in range(-3, 6):
        wk = power(w, k)
        assert ev.boundary_conjugate(identity_table(g), k) == conjugation_table(wk, g)
        t = ev.boundary_conjugate(a1, k)
        assert t == tuple(mul(wk, im, inverse(wk)) for im in a1), f"wrong table at k = {k}"
        assert fixes_boundary(t, g)
        seen.add(t)
        # in basis q it is the same map, conjugation by sigma^-1(w^k)
        a1q = ev.q.letter_table(letter(gen("a", 1)))
        assert ev.q.boundary_conjugate(a1q, k) == to_prefix_basis(t), f"basis q, k = {k}"
    # conjugation by w^k determines k, 5 included: there is no search bound
    assert len(seen) == 9


def test_prefix_basis_inverse_inverts_prefix_basis():
    for g in range(1, 49):
        sigma, sigma_inv = prefix_basis(g), prefix_basis_inverse(g)
        assert compose(sigma_inv, sigma) == identity_table(g) == compose(sigma, sigma_inv), g
        # q_k = x_1..x_k for odd k, x_k for even k
        assert sigma[-1] == (tuple(range(1, g + 1)) if g % 2 else (g,))


def test_prefix_basis_tables_are_conjugates_with_odd_images():
    # every q_k is one-sided, so, as in basis x, each image has odd length
    for g in range(3, 13):
        env = expansion_env(g, 1)
        ev = Evaluator(g)
        sigma, sigma_inv = prefix_basis(g), prefix_basis_inverse(g)
        assert ev.q.q is ev.q  # the sibling is already in basis q
        # the basis-q boundary word is sigma^-1(w), fixed by every table
        wq = ev.q.boundary
        assert wq == xsub(boundary_word(g), sigma_inv)
        gens = list(nonorientable_mcg_presentation(g, 1).generators) + list(env)
        for gen_ in gens:
            for sign in (1, -1):
                c = letter(gen_, sign)
                tq = ev.q.letter_table(c)
                # tq intertwines: sigma o tq = T o sigma
                assert compose(sigma, tq) == compose(ev.letter_table(c), sigma), (g, c)
                assert all(len(im) % 2 for im in tq), (g, gen_.label(), sign)
                assert xsub(wq, tq) == wq, (g, gen_.label(), sign)


def test_boundary_word_is_crosscap_norm():
    assert boundary_word(3) == (1, 1, 2, 2, 3, 3)
