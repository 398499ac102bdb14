"""Punctured-surface representation: automorphism tables, evaluation,
boundary behaviour, and conjugation by powers of the boundary word."""

from itertools import groupby

from hypothesis import given, settings, strategies as st
from reference import conjugation_table

from nmcg.catalogue import catalogue
from nmcg.pi1_action import (
    Evaluator,
    _moves,
    _Record,
    boundary_word,
    compose,
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
from nmcg.words import Factored, free_reduce, gen, inverse, letter, letters, lit, named, parse, power

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
            assert letters(closed[label].lhs) == flat and closed[label].word == flat, (g, label)
        for e in catalogue(g, 1) + catalogue(g, 0):
            for side in (e.lhs, e.rhs):
                if isinstance(side, Factored):
                    flat = Evaluator(g).evaluate(letters(side))
                    assert evaluate(side, g, env) == flat, (g, e.label())
                    assert ev.evaluate(side) == flat, ("second evaluation", g, e.label())
                    checked += 1
        if g > 8:
            continue
        # every cached part, at every exponent k in -3..4, is its flat power
        parts = {key[0] for key in ev._records if isinstance(key, tuple)}
        assert len(parts) >= 2 * g - 3, g  # Delta_k, u_1..u_m, r_g
        for part in parts:
            for k in (-3, -2, -1, 1, 2, 3, 4):
                rec = ev._record(part, k)
                assert ev._record(part, k) is rec
                assert rec.table == Evaluator(g).evaluate(power(letters(part), k)), (g, k)
    assert checked > 1000


def test_product_splices_a_leading_letter(monkeypatch):
    # a leading one-letter part of exponent -1, one whose remaining parts
    # are all trivial, and a one-letter Factored part, which is a part
    # like any other Factored one and never spliced, and the same shapes
    # later in the product: each word's table is that of
    # its flat letters, and, once the parts are cached, the splice runs
    # once per letter that leads a product of further parts, a letter
    # step once per later part, by that part's record, and compose never
    # (it did once per later part of more letters, before every part had
    # a record). compose is itself a step, so the steps that stand for
    # letters are the _step calls less the composes
    import nmcg.pi1_action as pa

    calls = {"splice": 0, "_step": 0, "compose": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(pa, name, counting(name, getattr(pa, name)))
    g = 7
    d5 = delta_word(5)
    for w, splices, steps, composes in (
        (Factored(((u(1), -1), (d5, 1))), 1, 0, 0),
        (Factored(((inverse(a(3)), -1), (d5, 2), (u(2), -1))), 1, 1, 0),
        (Factored(((u(2), 1), (d5, 0), (a(1), 0))), 0, 0, 0),
        (Factored(((Factored(((a(4), 1),)), 1), (r_word(g), 1))), 0, 1, 0),
        (Factored(((Factored(((u(3), -1),)), -1), (u(5), 1), (d5, -1))), 0, 2, 0),
        (Factored(((d5, 1), (a(2), 1))), 0, 1, 0),
        (Factored(((d5, -1), (u(4), -1))), 0, 1, 0),
        (Factored(((r_word(g), 2), (Factored(((u(3), -1),)), -1))), 0, 1, 0),
        (Factored(((d5, 1), (a(1), 1), (u(2), -1))), 0, 2, 0),
        (Factored(((u(1), 1), (d5, 1), (a(4), -1), (a(4), 0))), 1, 1, 0),
        (Factored(((a(1), 1), (u(2), 1))), 1, 0, 0),
        (Factored(((d5, 1), (a(2), 1), (d5, -1))), 0, 2, 0),
        (Factored(((u(1), 1), (d5, 2), (u(4), -1), (r_word(g), 1), (a(3), 1))), 1, 3, 0),
    ):
        flat = Evaluator(g).evaluate(letters(w))
        ev = Evaluator(g)
        for part, k in w.parts:
            if k and (isinstance(part, Factored) or len(part) > 1):
                ev._record(part, k)
        calls.update(dict.fromkeys(calls, 0))
        assert ev.evaluate(w) == flat, w.parts
        got = (calls["splice"], calls["_step"] - calls["compose"], calls["compose"])
        assert got == (splices, steps, composes), w.parts


def test_equal_parts_share_one_cached_table(monkeypatch):
    # a Factored part's record is keyed on its parts: a second object
    # with equal parts reuses the first one's tables
    import nmcg.pi1_action as pa

    g = 7
    p1, p2 = (Factored(((urun(1, 4), 1), (delta_word(4), 1))) for _ in "12")
    assert p1 == p2 and p1 is not p2
    ev = Evaluator(g)
    t = ev.evaluate(Factored(((p1, 3),)))
    calls, compose = [], pa.compose
    monkeypatch.setattr(pa, "compose", lambda t1, t2: calls.append(1) or compose(t1, t2))
    again = [ev.evaluate(Factored(((p2, 3),)))]
    assert not calls, f"{len(calls)} composes for a part already cached"
    assert all(a is t for a in again)


def test_deciding_reads_the_sides_lazily(monkeypatch):
    # deciding returns at the first piece with a u_i letter, so on the
    # Delta_k entries, whose sides open with a run of u's, it takes one
    # piece of one side and never walks the rest of Delta_k
    import nmcg.pi1_action as pa

    taken, real = [], pa.pieces

    def counted(word, k=1):
        for piece in real(word, k):
            taken.append(piece)
            yield piece

    monkeypatch.setattr(pa, "pieces", counted)
    ev = evaluator(48)
    entries = [e for e in catalogue(48, 1) if e.tag in ("B5", "E1", "B6", "B7", "B8")]
    assert {e.tag for e in entries} == {"B5", "E1", "B6", "B7", "B8"}
    for e in entries:
        taken.clear()
        assert ev.deciding(e.lhs, e.rhs) is ev, e.label()
        assert len(taken) == 1, (e.label(), len(taken))


def test_one_record_per_letter_and_part_power(monkeypatch):
    # the Evaluator keeps one record per key, a letter or (part, k): each
    # is built once however often it is read, letter_table reads a
    # letter's record, a one-letter part with exponent +-1 is its letter,
    # every record holds its moves, and the inverse images are made
    # only for a table that is spliced
    import nmcg.pi1_action as pa

    built, record = [], pa._Record
    monkeypatch.setattr(pa, "_Record", lambda t: built.append(t) or record(t))
    g = 7
    ev = Evaluator(g)
    sides = [side for e in catalogue(g, 1) for side in (e.lhs, e.rhs)]
    for _ in range(2):
        for side in sides:
            ev.evaluate(side)
        assert len(built) == len(ev._records) + len(ev.q._records), len(built)
    letters = [k for k in ev._records if isinstance(k, int)]
    assert len(letters) >= 4 * (g - 1), letters
    for c in letters:
        assert ev.letter_table(c) is ev._records[c].table, c
    u1 = letter(gen("u", 1))
    d2 = delta_word(2)
    assert d2 == (u1,)
    for k in (1, -1):
        assert ev._record(d2, k) is ev._records[k * u1], k
    assert ev._record(d2, 2) is ev._records[(d2, 2)]
    # the moves are made with the record, since _fold reads them once
    # per letter step; a part is never spliced, so it never holds the
    # inverse images, and a letter does once it leads a product
    ev = Evaluator(g)
    d5 = delta_word(5)
    ev.evaluate(Factored(((d5, 2),)))
    rec = ev._records[(d5, 2)]
    for r in (rec, ev._records[(d5, 1)]):
        assert r.moved == _moves(r.table) and "signed" not in vars(r)
    ev.evaluate(Factored(((urun(1, 4), 1), (d5, 2))))
    assert "signed" not in vars(rec)
    ev.evaluate(Factored(((u(1), 1), (d5, 2))))
    assert "signed" in vars(ev._records[u1]) and "signed" not in vars(rec)


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
        assert evaluate(w, g, env) == Evaluator(g).evaluate(letters(w))
    assert letters(Factored(((d5, 2), (d5, -2)))) == ()


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
    assert splice(_Record(t1).signed, {}, t2) == compose(t1, t2)


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
            moved = _Record(t1).signed
            for t2 in deltas + [identity_table(g), ev.letter_table(-c)]:
                out = splice(moved, {}, t2)
                assert out == compose(t1, t2), (g, c)
                for im, new in zip(t2, out):
                    fixed = all(xsub(run, t1) == run for run in _moved_runs(moved, im))
                    assert new is im or not fixed, (g, c, im)
            assert splice(moved, {}, ev.letter_table(-c)) == identity_table(g), (g, c)


def test_splice_reuses_one_letter_image_cache():
    # the Evaluator keeps one record per letter and basis: the moves of
    # that letter's table and an image cache, which maps each word splice
    # has rewritten (an image with a moved letter, and each maximal run of
    # moved letters in it) to its image under that table alone. Read back
    # across T(Delta_k) for every k <= g, the identity and the letter's
    # own inverse table, it gives compose each time; a second round adds
    # no key, and an image with no changed run comes back as itself
    for g, ev, letters, deltas in _letter_tables_and_deltas():
        for c in letters:
            t1 = ev.letter_table(c)
            rec = ev._record((c,), 1)
            moved, cache = rec.signed, rec.cache
            assert ev._record((c,), 1).cache is cache and moved == _Record(t1).signed, (g, c)
            tables = deltas + [identity_table(g), ev.letter_table(-c)]
            for t2 in tables:
                assert splice(moved, cache, t2) == compose(t1, t2), (g, c)
            known = dict(cache)
            for t2 in tables:
                out = splice(moved, cache, t2)
                assert out == compose(t1, t2), (g, c)
                for im, new in zip(t2, out):
                    assert new is im or new != im, (g, c, im)
            assert cache == known, (g, c)
            assert all(im == xsub(w, t1) for w, im in cache.items()), (g, c)


def test_letters_moving_the_same_images_keep_separate_caches():
    # u_m and a_m^-1 both move x_m and x_{m+1}, and only those (in basis
    # x), but map them differently, so each record caches its own images:
    # spliced in turn into the same T(Delta_k), each gives its own compose
    for g, ev, _, deltas in _letter_tables_and_deltas():
        for m in range(1, g):
            recs = [ev._record((c,), 1) for c in (u(m)[0], -a(m)[0])]
            if ev.q is not ev:
                assert recs[0].moved.keys() == recs[1].moved.keys() == {m, m + 1}, (g, m)
            assert recs[0].cache is not recs[1].cache, (g, m)
            for t2 in deltas:
                for rec in recs + recs[::-1]:
                    assert splice(rec.signed, rec.cache, t2) == compose(rec.table, t2), (g, m)
            for rec in recs:
                assert all(im == xsub(w, rec.table) for w, im in rec.cache.items()), (g, m)


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
    # against the table of conjugation by W^k composed after the table,
    # in basis x and in basis q, where W is written in the q_k
    g = 4
    ev = Evaluator(g)
    a1 = ev.letter_table(letter(gen("a", 1)))
    a1q = ev.q.letter_table(letter(gen("a", 1)))
    assert ev.boundary_conjugate(a1, 0) is a1
    seen = set()
    for k in range(-3, 6):
        for e, t in ((ev, a1), (ev.q, a1q)):
            conj = conjugation_table(power(e.boundary, k), g)
            assert e.boundary_conjugate(identity_table(g), k) == conj, (e.boundary, k)
            assert e.boundary_conjugate(t, k) == compose(conj, t), (e.boundary, k)
        t = ev.boundary_conjugate(a1, k)
        assert fixes_boundary(t, g)
        seen.add(t)
        # the same map in either basis
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
