"""Free-group word layer: reduction, parsing, and the algebra helpers."""

from hypothesis import example, given, strategies as st

import pytest

from nmcg.words import (
    Factored,
    cyclic_canon,
    cyclic_reduce,
    exponent_matrix,
    fmt,
    free_reduce,
    gen,
    gen_of,
    inverse,
    letter,
    letters,
    lit,
    mul,
    named,
    parse,
    parse_raw,
    pieces,
    power,
    substitute,
)

_letters = st.builds(
    letter,
    st.builds(gen, st.sampled_from("aub"), st.integers(1, 5)),
    st.sampled_from((1, -1)),
)
_words = st.lists(_letters, max_size=24).map(tuple)


def _naive_reduce(word):
    out = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


@given(_words)
def test_free_reduce_matches_naive_scan(w):
    assert free_reduce(w) == _naive_reduce(w)


@given(_words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(_words)
def test_inverse_is_involution(w):
    assert inverse(inverse(w)) == w


def test_inverses_share_each_negated_letter():
    # ints outside -5..256 are fresh objects unless the kernel shares them
    big = 10**6 + 7
    w, v = inverse((3, big)), inverse((big, -big, 12))
    assert w == (-big, -3) and v == (-12, big, -big)
    assert w[0] is v[2]


@given(_words)
def test_word_times_inverse_cancels(w):
    assert free_reduce(w + inverse(w)) == ()
    assert free_reduce(inverse(w) + w) == ()


@given(_words, st.integers(-4, 4))
def test_power_is_repeated_concat(w, k):
    w = free_reduce(w)  # power, like mul, takes freely reduced words
    expected = ()
    base = w if k >= 0 else inverse(w)
    for _ in range(abs(k)):
        expected = free_reduce(expected + base)
    assert power(w, k) == expected


@given(_words)
def test_cyclic_reduce_reassembles(w):
    r = free_reduce(w)
    core = cyclic_reduce(r)
    prefix = r[: (len(r) - len(core)) // 2]
    assert free_reduce(prefix + core + inverse(prefix)) == r
    if len(core) >= 2:
        assert not (core[0] == -core[-1]), (
            "core still has cancelling ends"
        )


@given(_words)
def test_cyclic_canon_is_the_least_rotation_of_the_word_and_its_inverse(w):
    # the shortest of the reduced rotations are the rotations of the cyclic core
    r = free_reduce(w)
    rotations = [v[i:] + v[:i] for v in (r, inverse(r)) for i in range(len(v))]
    assert cyclic_canon(r) == min((free_reduce(v) for v in rotations), key=lambda v: (len(v), v),
                                  default=())


@given(_words)
def test_parse_fmt_roundtrip_on_reduced_words(w):
    r = free_reduce(w)
    assert parse(fmt(r)) == r


def test_parse_raw_keeps_cancelling_pairs():
    raw = parse_raw("u1^-1*u1*u2")
    assert len(raw) == 3, "raw parse must not reduce"
    assert parse("u1^-1*u1*u2") == lit(gen("u", 2))


def test_parse_exponent_expansion():
    assert parse_raw("a2^3") == (
        letter(gen("a", 2), 1),
        letter(gen("a", 2), 1),
        letter(gen("a", 2), 1),
    )
    assert parse_raw("a2^-2") == (letter(gen("a", 2), -1), letter(gen("a", 2), -1))
    assert parse("") == ()


def test_parse_named_letters():
    assert parse("b") == lit(gen("b", 1)), "bare b aliases the first off-chain twist"
    w = parse("q3")
    assert len(w) == 1 and gen_of(w[0]).name == "q3"


def test_letter_interns_each_generator_once():
    for g in (gen("a", 1), gen("u", 7), named("y1"), gen("b", 1)):
        c = letter(g)
        assert c > 0 and letter(g, -1) == -c and letter(g) == c
        assert gen_of(c) == g == gen_of(-c)
    assert parse("b") == lit(gen("b", 1)) and letter(gen("a", 1)) != letter(gen("u", 1))


@given(st.lists(_words.map(free_reduce), max_size=6))
def test_mul_of_reduced_parts_is_the_reduced_concatenation(parts):
    assert mul(*parts) == free_reduce(sum(parts, ()))


@st.composite
def _cancelling_factors(draw):
    """Reduced factors, each of which opens by undoing a drawn suffix of
    the product so far: one with an empty rest cancels whole, so that
    the next one's cancellation reaches back into earlier factors, and
    one that undoes nothing and adds nothing is empty."""
    factors, product = [], ()
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, len(product)))
        rest = draw(st.one_of(st.just(()), _words.map(free_reduce)))
        factors.append(free_reduce(inverse(product[len(product) - k:]) + rest))
        product = free_reduce(product + factors[-1])
    return factors


@given(_cancelling_factors())
def test_mul_cancels_across_junctions_and_whole_factors(factors):
    assert mul(*factors) == free_reduce(sum(factors, ()))


def test_substitute_is_a_homomorphism():
    images = {letter(gen("a", 1)): parse("u1*u2"), letter(gen("u", 2)): parse("a1^-1")}
    v, w = parse("a1*u2"), parse("u2^-1*a1*x1")
    left = substitute(free_reduce(v + w), images)
    right = free_reduce(substitute(v, images) + substitute(w, images))
    assert free_reduce(left) == right
    assert free_reduce(substitute(inverse(v), images)) == free_reduce(
        inverse(substitute(v, images))
    )


def test_exponent_sums_counts_signs():
    order = [letter(gen("a", 1)), letter(gen("u", 2))]
    assert exponent_matrix([(parse("a1*a1*u2^-1"), ())], order)[0] == {0: 2, 1: -1}
    assert exponent_matrix([((), ())], order)[0] == {}
    # a commutation (rhs is lhs reversed) has zero sums, a braid relation not
    pairs = [(parse("a1*u2"), parse("u2*a1")), (parse("a1*u2*a1"), parse("u2*a1*u2")),
             (parse("a1*a1*u2"), parse("a1*u2*a1"))]
    assert exponent_matrix(pairs, order) == [{}, {0: 1, 1: -1}, {}]


def test_lit_sign():
    assert lit(gen("a", 3)) == (letter(gen("a", 3)),)
    assert inverse(lit(gen("a", 3))) == (letter(gen("a", 3), -1),)


def test_named_roundtrip():
    d = named("d")
    assert d.name == "d" and parse(fmt(lit(d))) == lit(d)


def _naive_letters(w, k=1):
    # the unreduced letters of w^k, a Factored word expanded part by part
    if not isinstance(w, Factored):
        return tuple(w if k > 0 else inverse(w)) * abs(k)
    once = sum((_naive_letters(p, e) for p, e in w.parts), ())
    return (once if k > 0 else tuple(-c for c in reversed(once))) * abs(k)


_factored = st.recursive(
    _words.map(free_reduce),
    lambda parts: st.lists(st.tuples(parts, st.integers(-3, 3)), max_size=4).map(Factored),
    max_leaves=12,
)


_d = (letter(gen("a", 1)), letter(gen("u", 2)))


@given(_factored)
@example(Factored(((_d, 2), (Factored(((_d, 1),)), -2))))
def test_letters_is_the_reduced_expansion_of_the_parts(w):
    # nested parts, negative and zero exponents, and parts that cancel
    # across their junctions or whole (the example has no letters): the
    # pieces of w^k are plain, of nonzero exponent, and their powers in
    # order are the expansion; letters is the free reduction of the
    # expansion, and len and truth value of a Factored are its letters'
    for k in (1, -2):
        got = list(pieces(w, k))
        assert all(type(p) is tuple and e for p, e in got)
        assert sum((_naive_letters(p, e) for p, e in got), ()) == _naive_letters(w, k)
    flat = letters(w)
    assert flat == _naive_reduce(_naive_letters(w))
    if isinstance(w, Factored):
        assert len(w) == len(flat) and bool(w) == bool(flat)
        assert fmt(w) == fmt(flat)
        with pytest.raises(TypeError):
            iter(w)
    else:
        assert flat is w


@given(_factored, _factored)
@example(Factored(((Factored(((_d, 2), (lit(gen("b", 1)), 1))), -3),)), _d)
def test_exponent_matrix_reads_a_factored_side_as_its_letters(w, v):
    # a Factored side, nested or of negative exponent, is summed piece by
    # piece and never flattened: its row is that of its letters
    cols = [letter(gen(f, i)) for f in "aub" for i in range(1, 6)]
    assert exponent_matrix([(w, v)], cols) == exponent_matrix([(letters(w), letters(v))], cols)
