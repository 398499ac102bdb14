"""Action of mapping classes on the fundamental group of the punctured
nonorientable surface.

pi_1 of the genus-g surface with one boundary component is free on
x_1..x_g (one-sided crosscap loops); the boundary word is
W = x_1^2 x_2^2 ... x_g^2. A mapping class acts by an automorphism
fixing W letter-for-letter. Words in x_1..x_g are tuples of signed ints
(+i for x_i, -i for its inverse); an automorphism is a table: a tuple
whose entry i-1 is the image of x_i.

Generator images were derived by solving the defining relations over
the free group (insertion search constrained by boundary fixation and
the commutations each twist must satisfy, then validated against the
full relator suite); they are frozen here and pinned by tests.

evaluate() composes generator tables in word order: the rightmost
letter acts first, i.e. evaluate(g1 g2) = phi_g1 after phi_g2.
"""

from __future__ import annotations

from collections import OrderedDict

from .words import Gen, Word, inverse as winv

XWord = tuple  # tuple of nonzero ints


def xreduce(seq) -> XWord:
    return xmul(seq)


def xinv(w: XWord) -> XWord:
    return tuple(-c for c in reversed(w))


def xmul(*ws) -> XWord:
    """Free reduction of the concatenation of ws: the one word kernel that
    xreduce, xsub and compose share."""
    out = []
    for w in ws:
        for c in w:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def xpow(w: XWord, k: int) -> XWord:
    if k < 0:
        w, k = xinv(w), -k
    return xmul(*([w] * k)) if k else ()


def xsub(w: XWord, table) -> XWord:
    """Image of w under the automorphism given by table."""
    return xmul(*(table[c - 1] if c > 0 else xinv(table[-c - 1]) for c in w))


def identity_table(g: int):
    return tuple((i,) for i in range(1, g + 1))


def compose(t1, t2):
    """t1 after t2 (x -> t1(t2(x))). An image (j,) of t2 is t1[j-1]
    itself, shared rather than copied (tables are reduced and immutable);
    each image of t1 is inverted at most once per call."""
    inv = {}

    def image(c):
        if c > 0:
            return t1[c - 1]
        if c not in inv:
            inv[c] = xinv(t1[-c - 1])
        return inv[c]

    return tuple([
        t1[im[0] - 1] if len(im) == 1 and im[0] > 0 else xmul(*map(image, im))
        for im in t2
    ])


def boundary_word(g: int) -> XWord:
    return tuple(i for i in range(1, g + 1) for _ in (0, 1))


def conjugation_table(w: XWord, g: int):
    return tuple(xmul(w, (i,), xinv(w)) for i in range(1, g + 1))


def _one(g, images: dict):
    return tuple(tuple(images.get(i, (i,))) for i in range(1, g + 1))


def crosscap_transposition(i: int, g: int, sign: int = 1):
    """u_i: slides crosscap i+1 through crosscap i."""
    assert 1 <= i <= g - 1, f"u_{i} needs genus > {i}"
    if sign == 1:
        return _one(g, {i: (i, i, i + 1, -i, -i), i + 1: (i,)})
    return _one(g, {i: (i + 1,), i + 1: (-(i + 1), -(i + 1), i, i + 1, i + 1)})


def twist(i: int, g: int, sign: int = 1):
    """a_i: Dehn twist about the two-sided curve through crosscaps i, i+1."""
    assert 1 <= i <= g - 1, f"a_{i} needs genus > {i}"
    if sign == 1:
        return _one(g, {i: (i, -(i + 1), -i), i + 1: (i, i + 1, i + 1)})
    return _one(g, {i: (i, i, i + 1), i + 1: (-(i + 1), -i, i + 1)})


_B_PLUS = {
    1: (1, -4, -3, -2, -1),
    2: (1, 2, 3, 4, 2, 3, 4, 1, 2, -4, -3, -2, -1),
    3: (1, 2, 3, 4, -2, -1, -4, -4, -3, -2, -1),
    4: (1, 2, 3, 4, 4),
}
_B_MINUS = {
    1: (1, 1, 2, 3, 4),
    2: (-4, -3, -2, -1, -1, -4, -3, 1, 2, 3, 4),
    3: (-4, -3, -2, -1, 3, 4, 1, 2, 3, 1, 2, 3, 4),
    4: (-4, -3, -2, -1, 4),
}


def genus4_twist(g: int, sign: int = 1):
    """b: Dehn twist about the curve enclosing crosscaps 1..4."""
    assert g >= 4, "b needs genus >= 4"
    return _one(g, dict(_B_PLUS if sign == 1 else _B_MINUS))


class Evaluator:
    """Evaluates words over presentation generators to tables.

    env maps non-primitive generators (b_0, b_j for j >= 2, named
    elements like y1 or d) to their defining words; expansion recurses
    until only primitive letters (a_i, u_i, b_1) remain. Tables are
    cached per (generator, sign).
    """

    def __init__(self, g: int, env=None):
        self.g = g
        self.env = dict(env or {})
        self._cache = {}

    def letter_table(self, gen: Gen, sign: int):
        key = (gen, sign)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.g
        if gen.fam == "a":
            t = twist(gen.idx, g, sign)
        elif gen.fam == "u":
            t = crosscap_transposition(gen.idx, g, sign)
        elif gen.fam == "b" and gen.idx == 1:
            t = genus4_twist(g, sign)
        elif gen.fam == "b" and gen.idx == 0:
            t = twist(1, g, sign)  # b_0 = a_1
        else:
            word = self.env.get(gen)
            if word is None:
                raise KeyError(f"no expansion for generator {gen.label()} at genus {g}")
            t = self.evaluate(word if sign == 1 else winv(word))
        self._cache[key] = t
        return t

    def evaluate(self, word: Word):
        acc = identity_table(self.g)
        for gen, sign in word:
            acc = compose(acc, self.letter_table(gen, sign))
        return acc


_SHARED_MAX = 8
_shared = OrderedDict()  # (g, id(env)) -> (env, Evaluator), least recent first


def evaluate(word: Word, g: int, env=None):
    """Table of word. One Evaluator is kept per (g, env object), so letter
    tables (b_j, y, v, r_g) are built once across calls. A hit costs one
    dict comparison with shared values, independent of the length of the
    env words; an env mutated since it was cached misses. At most
    _SHARED_MAX are kept, so callers that pass a fresh env each time
    cannot grow memory."""
    key = (g, id(env))
    hit = _shared.get(key)
    if hit is not None and hit[1].env == (env or {}):
        _shared.move_to_end(key)
        return hit[1].evaluate(word)
    ev = Evaluator(g, env)
    _shared[key] = (env, ev)  # holding env keeps its id from being reused
    _shared.move_to_end(key)
    if len(_shared) > _SHARED_MAX:
        _shared.popitem(last=False)
    return ev.evaluate(word)


def fixes_boundary(table, g: int) -> bool:
    w = boundary_word(g)
    return xsub(w, table) == w


def conjugation_exponent(table, g: int, kmax: int = 4):
    """Smallest |k| <= kmax with table = conjugation by W^k, else None."""
    basis = identity_table(g)
    for k in sorted(range(-kmax, kmax + 1), key=lambda k: (abs(k), -k)):
        wk = xpow(boundary_word(g), k)
        if all(table[i] == xmul(wk, basis[i], xinv(wk)) for i in range(g)):
            return k
    return None


def format_tables(g: int) -> str:
    """Printable dump of the frozen generator tables at genus g."""

    def show(name, t):
        ims = ", ".join(
            "x%d -> %s" % (i + 1, "".join(("x%d" % c) if c > 0 else ("X%d" % -c) for c in t[i]))
            for i in range(g)
            if t[i] != (i + 1,)
        )
        return f"{name}: {ims or 'identity'}"

    lines = []
    for i in range(1, g):
        lines.append(show(f"a{i}", twist(i, g)))
    for i in range(1, g):
        lines.append(show(f"u{i}", crosscap_transposition(i, g)))
    if g >= 4:
        lines.append(show("b1", genus4_twist(g)))
    return "\n".join(lines) + "\n"
