"""Action of mapping classes on the fundamental group of the punctured
nonorientable surface.

pi_1 of the genus-g surface with one boundary component is free on
x_1..x_g (one-sided crosscap loops); the boundary word is
W = x_1^2 x_2^2 ... x_g^2. A mapping class acts by an automorphism
fixing W letter-for-letter. Words in x_1..x_g are tuples of signed ints
(+i for x_i, -i for its inverse); an automorphism is a table: a tuple
whose entry i-1 is the image of x_i.

Every twist generator, a_i and each b_j (b_0 included), is built by one
rule, curve_twist, from the two-sided curve through its crosscaps: i, i+1
for a_i and 1..2j+2 for b_j. The crosscap transposition u_i is written
out directly. Tests pin the tables of a_1, a_2, u_1 and b_1.

evaluate() composes generator tables in word order: the rightmost
letter acts first, i.e. evaluate(g1 g2) = phi_g1 after phi_g2. A
words.Factored word is evaluated from its parts: each part's table is
raised to its power by repeated squaring (a negative power is the table
of the inverse word), and the table of every Factored part is cached on
the Evaluator next to its letter tables, so a shared factor such as the
half-twist Delta_k is built once per (g, env).

The word kernel (xmul and the helpers built on it) takes freely reduced
parts, such as table images and their inverses: only the letters where
two parts meet can cancel. xreduce reduces an arbitrary sequence.
"""

from __future__ import annotations

from collections import OrderedDict

from .words import Factored, Gen, Word, inverse as winv

XWord = tuple  # tuple of nonzero ints


def xreduce(seq) -> XWord:
    """Free reduction of any sequence of letters, one letter at a time."""
    out = []
    for c in seq:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def xinv(w: XWord) -> XWord:
    return tuple(-c for c in reversed(w))


def xmul(*ws) -> XWord:
    """Free reduction of the concatenation of ws, the word kernel that
    xsub, xpow and compose share. Every part must be freely reduced: then
    only letters where the result so far meets the next part can cancel,
    and the rest of that part is appended whole."""
    out = []
    for w in ws:
        i, n = 0, len(w)
        while i < n and out and out[-1] == -w[i]:
            out.pop()
            i += 1
        out.extend(w[i:])
    return tuple(out)


def xpow(w: XWord, k: int) -> XWord:
    """w^k for a freely reduced w."""
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
    """Conjugation by the freely reduced w."""
    return tuple(xmul(w, (i,), xinv(w)) for i in range(1, g + 1))


def boundary_conjugate(table, g: int, k: int):
    """table followed by conjugation by W^k, W the boundary word.
    Conjugation by W is the action of the boundary twist, which is
    central, so lhs = rhs times its k-th power reads
    T(lhs) == boundary_conjugate(T(rhs), g, k); k = 0 gives table."""
    if not k:
        return table
    return compose(conjugation_table(xpow(boundary_word(g), k), g), table)


def _one(g, images: dict):
    return tuple(tuple(images.get(i, (i,))) for i in range(1, g + 1))


def crosscap_transposition(i: int, g: int, sign: int = 1):
    """u_i: slides crosscap i+1 through crosscap i."""
    if not 1 <= i <= g - 1:
        raise ValueError(f"no crosscap transposition u_{i} at genus {g}")
    if sign == 1:
        return _one(g, {i: (i, i, i + 1, -i, -i), i + 1: (i,)})
    return _one(g, {i: (i + 1,), i + 1: (-(i + 1), -(i + 1), i, i + 1, i + 1)})


def curve_twist(k: int, m: int, g: int, sign: int = 1):
    """Dehn twist T^sign about the two-sided curve through crosscaps
    k..k+m-1 (m even): a_i is (i, 2) and b_j is (1, 2j+2). With
    C = x_k..x_{k+m-1}, T^+ sends x_k to x_k C^-1 and x_{k+m-1} to
    C x_{k+m-1}; an interior x_i at even position p = i-k+1 goes to
    C (x_i..x_{k+m-1} x_k..x_i) C^-1 and one at odd position to
    C (x_{i+1}..x_{k+m-1} x_k..x_{i-1})^-1 C^-1. T^- replaces C by C^-1
    and swaps the two interior rules. Every other x_i is fixed."""
    last = k + m - 1
    if m < 2 or m % 2 or k < 1 or last > g:
        raise ValueError(f"no two-sided curve through crosscaps {k}..{last} at genus {g}")
    c = tuple(range(k, last + 1))
    ci = xinv(c)
    if sign == -1:
        c, ci = ci, c
    images = {k: (k,) + ci, last: c + (last,)}
    for i in range(k + 1, last):
        even = (i - k) % 2 == 1  # position i-k+1 is even
        if even == (sign == 1):
            mid = tuple(range(i, last + 1)) + tuple(range(k, i + 1))
        else:
            mid = xinv(tuple(range(i + 1, last + 1)) + tuple(range(k, i)))
        images[i] = xmul(c, mid, ci)
    return _one(g, images)


class Evaluator:
    """Evaluates words over presentation generators to tables.

    a_i and b_j are built by curve_twist and u_i by
    crosscap_transposition; env maps the named elements (y1, y2, v, r_g,
    c, d) to their defining words over a_i, u_i and b_j. Tables are
    cached per (generator, sign), and per (Factored part, sign): a
    Factored part is meant to be a shared factor, and its cached table
    lives as long as the Evaluator.
    """

    def __init__(self, g: int, env=None):
        self.g = g
        self.env = dict(env or {})
        self._cache = {}
        self._parts = {}  # (id(part), sign) -> (part, table); part keeps its id

    def letter_table(self, gen: Gen, sign: int):
        key = (gen, sign)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.g
        if gen.fam == "a":
            t = curve_twist(gen.idx, 2, g, sign)
        elif gen.fam == "b":
            t = curve_twist(1, 2 * gen.idx + 2, g, sign)
        elif gen.fam == "u":
            t = crosscap_transposition(gen.idx, g, sign)
        else:
            word = self.env.get(gen)
            if word is None:
                raise KeyError(f"no expansion for generator {gen.label()} at genus {g}")
            t = self.evaluate(word if sign == 1 else winv(word))
        self._cache[key] = t
        return t

    def evaluate(self, word: Word):
        if isinstance(word, Factored):
            hit = self._parts.get((id(word), 1))
            return hit[1] if hit is not None else self._product(word.parts)
        return self._fold(self.letter_table(gen, sign) for gen, sign in word)

    def _fold(self, tables):
        acc = None
        for t in tables:
            acc = t if acc is None else compose(acc, t)
        return identity_table(self.g) if acc is None else acc

    def _product(self, parts):
        return self._fold(self._power(part, k) for part, k in parts if k)

    def _power(self, part, k: int):
        """Table of part^k (k != 0) by repeated squaring."""
        sign = 1 if k > 0 else -1
        if isinstance(part, Factored):
            key = (id(part), sign)
            hit = self._parts.get(key)
            if hit is None:
                inv = part.parts if sign == 1 else [(p, -e) for p, e in reversed(part.parts)]
                hit = self._parts[key] = (part, self._product(inv))
            t = hit[1]
        else:
            t = self.evaluate(part if sign == 1 else winv(part))
        k, acc = abs(k), None
        while True:
            if k & 1:
                acc = t if acc is None else compose(acc, t)
            k >>= 1
            if not k:
                return acc
            t = compose(t, t)


_SHARED_MAX = 8
_shared = OrderedDict()  # (g, id(env)) -> (env, Evaluator), least recent first


def evaluator(g: int, env=None) -> Evaluator:
    """The shared Evaluator of (g, env object), so letter tables (b_j, y,
    v, r_g) and Factored part tables are built once across calls. A hit
    costs one dict comparison with shared values, independent of the
    length of the env words; an env mutated since it was cached misses.
    At most _SHARED_MAX are kept, so callers that pass a fresh env each
    time cannot grow memory."""
    key = (g, id(env))
    hit = _shared.get(key)
    if hit is not None and hit[1].env == (env or {}):
        _shared.move_to_end(key)
        return hit[1]
    ev = Evaluator(g, env)
    _shared[key] = (env, ev)  # holding env keeps its id from being reused
    _shared.move_to_end(key)
    if len(_shared) > _SHARED_MAX:
        _shared.popitem(last=False)
    return ev


def evaluate(word: Word, g: int, env=None):
    """Table of word, by the shared Evaluator of (g, env)."""
    return evaluator(g, env).evaluate(word)


def fixes_boundary(table, g: int) -> bool:
    w = boundary_word(g)
    return xsub(w, table) == w


def format_tables(g: int) -> str:
    """Printable dump of the generator tables that verify uses at genus g:
    a_i, u_i and b_j for j = 0..(g-2)//2."""

    def show(name, t):
        ims = ", ".join(
            "x%d -> %s" % (i + 1, "".join(("x%d" % c) if c > 0 else ("X%d" % -c) for c in t[i]))
            for i in range(g)
            if t[i] != (i + 1,)
        )
        return f"{name}: {ims or 'identity'}"

    gens = [Gen(f, i) for f in "au" for i in range(1, g)]
    gens += [Gen("b", j) for j in range((g - 2) // 2 + 1)]
    ev = Evaluator(g)
    return "".join(show(x.label(), ev.letter_table(x, 1)) + "\n" for x in gens)
