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
out directly. Tests pin the tables of a_1, a_2, u_1 and b_1. The named
letters (y1, y2, v, r_g, c, d) abbreviate words whose value depends on
the genus alone, so one shared Evaluator per genus, evaluator(g), holds
them all and builds each letter's table once.

evaluate() composes generator tables in word order: the rightmost
letter acts first, i.e. evaluate(g1 g2) = phi_g1 after phi_g2. There is
one composition kernel, the letter step: t1 after t2 differs from t1
only at the images t2 moves (two for a_i and u_i), so a step copies t1
and rewrites those images alone, each by mul of t1's images of its
letters; compose(t1, t2) is the step by every image t2 moves. splice
takes a table that moves few letters into one with long images: each
image is cut only around the maximal runs of letters it moves whose
image differs from the run. u_m and a_m^{+-1} map each run
x_m x_m x_{m+1} x_{m+1} of a prefix of the boundary word, and its
inverse, to itself, so most images of T(Delta_k) are kept as they are.
The Evaluator docstring says how a word is folded by these kernels and
what is cached. The boundary twist acts by conjugation by W, an inner
automorphism, so boundary_conjugate conjugates each image by W^k.

Words in x_1..x_g and words over the presentation generators share one
kernel, that of the words module (mul, inverse, power); mul takes freely
reduced parts, such as table images and their inverses.

A table can also be written in the one-sided prefix basis q, with
q_k = x_1..x_k for odd k and q_k = x_k for even k: the Nielsen change of
basis sigma: x_k -> q_k (Lyndon-Schupp, Combinatorial Group Theory,
Ch. I.2) turns T into sigma^-1 o T o sigma. Conjugation keeps
composition and table equality, so an identity of tables holds in one
basis iff it holds in the other. Each Evaluator has a sibling in basis q
(Evaluator.q); evaluate(), fixes_boundary and format_tables stay in
basis x. Every q_k is one-sided, so in basis q, as in basis x, every
image has odd length. The prefixes x_1..x_k for every k make a basis
too, but those of even length are two-sided, so images would take both
length parities; that basis measured about 10% more peak memory, held
in CPython's free lists of even-length tuples.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, count

from .presentations import expansion_env, generators
from .words import Factored, Gen, Word, gen_of, inverse, letter, mul, pieces, power


def xsub(w: Word, table) -> Word:
    """Image of w under the automorphism given by table."""
    return mul(*(table[c - 1] if c > 0 else inverse(table[-c - 1]) for c in w))


@lru_cache(maxsize=None)
def identity_table(g: int):
    return tuple((i,) for i in range(1, g + 1))


def compose(t1, t2):
    """t1 after t2 (x -> t1(t2(x))): the letter step (see _step) by every
    image t2 moves."""
    return _step(t1, _moves(t2))


def _moves(t):
    """The images the table t moves, keyed i for x_i."""
    return {i: im for i, im in enumerate(t, 1) if im != (i,)}


def _step(acc, moved):
    """acc after T, for the table T whose moves (see _moves) are moved:
    a copy of acc in which only the images T moves are rewritten, each
    as the product of acc's images of its letters. A one-letter image is
    that letter's image itself, and each image of acc is inverted at
    most once per call."""
    out = list(acc)
    pieces = {}
    for i, im in moved.items():
        for c in im:
            if c not in pieces:
                pieces[c] = acc[c - 1] if c > 0 else inverse(acc[-c - 1])
        out[i - 1] = mul(*map(pieces.__getitem__, im)) if len(im) != 1 else pieces[im[0]]
    return tuple(out)


def splice(moved, runs, t2):
    """T after t2, as compose, for the table T whose moves (see _moves)
    are in moved with the inverse of each image keyed -i (_Record.signed),
    when T moves few letters. Each image of t2 is split into
    maximal runs of letters T moves and the slices between them. The
    image of a run under T is cached in runs, a dict kept per table T:
    a run T maps to itself, such as x_m x_m x_{m+1} x_{m+1} under u_m,
    stays inside its slice, and only the changed runs are cut out and
    joined by mul to the untouched slices, so only the junctions are
    reduced letter by letter. An image with no changed run is kept as
    the same object."""
    disjoint, contains, image = moved.keys().isdisjoint, moved.__contains__, moved.__getitem__
    out = []
    for im in t2:
        if not disjoint(im):
            pieces, start, lo, hi = [], 0, 0, 0
            # the positions of moved letters, then -1 to end the last run
            for p in (*compress(count(), map(contains, im)), -1):
                if p != hi:  # the run im[lo:hi], if any, ends before p
                    if hi:
                        run = im[lo:hi]
                        new = runs.get(run)
                        if new is None:
                            new = runs[run] = mul(*map(image, run))
                        if new != run:
                            pieces += (im[start:lo], new)
                            start = hi
                    lo = p
                hi = p + 1
            if pieces:
                im = mul(*pieces, im[start:])
        out.append(im)
    return tuple(out)


def boundary_word(g: int) -> Word:
    return tuple(i for i in range(1, g + 1) for _ in (0, 1))


def prefix_basis(g: int):
    """Table of sigma: x_k -> q_k, the one-sided prefix basis, with
    q_k = x_1..x_k for odd k and q_k = x_k for even k."""
    return tuple(tuple(range(1, k + 1)) if k % 2 else (k,) for k in range(1, g + 1))


def prefix_basis_inverse(g: int):
    """Table of sigma^-1: x_k -> q_{k-1}^-1 q_{k-2}^-1 q_k for odd k >= 3,
    every other x_k fixed. xsub(w, prefix_basis_inverse(g)) rewrites a
    word in the x_k as a word in the q_k."""
    return tuple((1 - k, 2 - k, k) if k % 2 and k > 1 else (k,) for k in range(1, g + 1))


def to_prefix_basis(table):
    """sigma^-1 o table o sigma: the same automorphism, written in basis q."""
    g = len(table)
    return compose(prefix_basis_inverse(g), compose(table, prefix_basis(g)))


def _one(g, images: dict):
    """Table with the given images; every other x_i keeps the identity's
    image, one shared tuple per genus."""
    return tuple(images.get(i, im) for i, im in enumerate(identity_table(g), 1))


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
    ci = inverse(c)
    if sign == -1:
        c, ci = ci, c
    images = {k: (k,) + ci, last: c + (last,)}
    for i in range(k + 1, last):
        even = (i - k) % 2 == 1  # position i-k+1 is even
        if even == (sign == 1):
            mid = tuple(range(i, last + 1)) + tuple(range(k, i + 1))
        else:
            mid = inverse(tuple(range(i + 1, last + 1)) + tuple(range(k, i)))
        images[i] = mul(c, mid, ci)
    return _one(g, images)


class Evaluator:
    """Evaluates words over presentation generators to tables.

    a_i and b_j are built by curve_twist and u_i by
    crosscap_transposition; words maps each named element of genus g
    (y1, y2, v, r_g, c, d) to its defining word over a_i, u_i and b_j,
    the union of expansion_env(g, 0) and expansion_env(g, 1), which
    agree on every name they share.

    Every table the Evaluator builds is one record (_Record), made on
    first use by _record(part, k) and kept in _records as long as the
    Evaluator. A record is keyed by a letter c, or by (part, k) for any
    other power part^k: a plain one-letter part with k = +-1 is its
    letter, and a Factored part keys as itself, by its parts, never by
    its flat letters, which are never built. So a shared factor such as
    Delta_k, u_1..u_m or r_g, and each of its powers, is built once
    whichever equal object holds it; |k| > 1 squares the table of
    part^(+-1). A record also holds what _step and splice read of its
    table (see _Record).

    A plain word is the product of its letters, a Factored word that of
    its parts, and a product is one fold (_fold): the first record's
    table, then one letter step (_step) per later record, which rewrites
    only the images that table moves. The one special case is a leading
    one-letter part followed by further parts, such as u_{k-i} in
    u_{k-i} Delta_k (B5), which splice takes into the product of the rest
    with its record; the images of every T(Delta_k) share their runs, so
    each run's image is computed once per letter and basis. A Factored
    word evaluated whole is not cached itself; it reuses the record of an
    equal Factored part.

    The Evaluator works in basis x. Its sibling q, built with it,
    runs the same code in basis q with its own records: its letter table
    of c is to_prefix_basis(T) = sigma^-1 o T o sigma, two compositions
    with the basis-x letter table T, built once per letter. In basis q
    the b_j curve is the two-letter word q_{2j+1} q_{2j+2}, so a b_j
    table has short images, where in basis x every interior image is
    conjugated by the curve. boundary is the boundary word in the
    Evaluator's basis. deciding picks the basis for an identity.
    """

    def __init__(self, g: int, x=None):
        self.g = g
        self.words = {**expansion_env(g, 0), **expansion_env(g, 1)} if x is None else x.words
        self._x = x  # the basis-x Evaluator whose letter tables this one rewrites
        self._records = {}  # a letter, or (part, k) -> the _Record of its table
        # the letters u_i^+-1 and b_j^+-1 of genus g, for deciding
        self._u = frozenset(s * letter(Gen("u", i)) for i in range(1, g) for s in (1, -1))
        self._b = frozenset(s * letter(Gen("b", j)) for j in range(g // 2) for s in (1, -1))
        w = boundary_word(g)
        self.boundary = w if x is None else xsub(w, prefix_basis_inverse(g))
        # the Evaluator of the same genus in basis q: the sibling, or self
        self.q = Evaluator(g, x=self) if x is None else self

    def deciding(self, lhs: Word, rhs: Word) -> "Evaluator":
        """The Evaluator that decides T(lhs) == C o T(rhs): the basis-q
        sibling when lhs and rhs have a b_j letter and no u_i letter (b_j
        tables are short in basis q, and u_i moves q_k for every odd
        k > i), else self. Either basis gives the same verdict. The
        sides are read lazily by words.pieces, never flattened, and the
        first piece with a u_i letter ends the read."""
        b = False
        for side in (lhs, rhs):
            for w, _ in pieces(side):
                if not self._u.isdisjoint(w):
                    return self
                b = b or not self._b.isdisjoint(w)
        return self.q if b else self

    def letter_table(self, c: int):
        return self._record((c,), 1).table

    def _letter(self, c: int):
        """The table of the letter c, built: in basis q from the basis-x
        table, a_i and b_j by curve_twist, u_i by crosscap_transposition,
        and a named letter from its word."""
        if self._x is not None:
            return to_prefix_basis(self._x.letter_table(c))
        g, gen, sign = self.g, gen_of(c), 1 if c > 0 else -1
        if gen.fam == "a":
            return curve_twist(gen.idx, 2, g, sign)
        if gen.fam == "b":
            return curve_twist(1, 2 * gen.idx + 2, g, sign)
        if gen.fam == "u":
            return crosscap_transposition(gen.idx, g, sign)
        word = self.words.get(gen)
        if word is None:
            raise KeyError(f"no expansion for generator {gen.label()} at genus {g}")
        return self.evaluate(word if sign == 1 else inverse(word))

    def boundary_conjugate(self, table, k: int):
        """table followed by conjugation by W^k, W the boundary word:
        each image conjugated by W^k. Conjugation by W is the action of
        the boundary twist, which is central, so lhs = rhs times its k-th
        power reads T(lhs) == boundary_conjugate(T(rhs), k); k = 0 gives
        table."""
        if not k:
            return table
        wk, wki = power(self.boundary, k), power(self.boundary, -k)
        return tuple([mul(wk, im, wki) for im in table])

    def evaluate(self, word: Word):
        if isinstance(word, Factored):
            # not cached itself, but an equal Factored part may be
            hit = self._records.get((word, 1))
            return hit.table if hit is not None else self._product(word.parts)
        get = self._records.get  # a letter's record is keyed by the letter
        return self._fold(get(c) or self._record((c,), 1) for c in word)

    def _record(self, part, k: int):
        """The record of part^k (k != 0), keyed as the class docstring
        says and built if missing: a letter's table by _letter, |k| > 1 by
        squaring the table of part^(+-1), and part^(+-1) as the product of
        a Factored part's parts, or of a plain part's letters."""
        letter_key = abs(k) == 1 and type(part) is not Factored and len(part) == 1
        key = part[0] * k if letter_key else (part, k)
        rec = self._records.get(key)
        if rec is None:
            if type(key) is int:
                t = self._letter(key)
            elif abs(k) > 1:
                t = _table_power(self._record(part, 1 if k > 0 else -1).table, abs(k))
            elif isinstance(part, Factored):
                t = self._product(part.parts if k > 0 else [(p, -e) for p, e in part.parts[::-1]])
            else:
                t = self.evaluate(part if k > 0 else inverse(part))
            rec = self._records[key] = _Record(t)
        return rec

    def _product(self, parts):
        parts = [(part, k) for part, k in parts if k]
        lead, k = parts[0] if parts else ((), 0)
        if len(parts) > 1 and abs(k) == 1 and type(lead) is not Factored and len(lead) == 1:
            first = self._record(lead, k)
            return splice(first.signed, first.runs, self._product(parts[1:]))
        return self._fold(self._record(part, k) for part, k in parts)

    def _fold(self, records):
        """Table of the product of the records' tables, in order: the
        first record's table, then one letter step per later record."""
        acc = None
        for rec in records:
            acc = rec.table if acc is None else _step(acc, rec.moved)
        return identity_table(self.g) if acc is None else acc


class _Record:
    """A table of an Evaluator, with what _step and splice read of it:
    its moves (see _moves) for _step, made with the record, since _fold
    reads them once per letter step; the same with the inverse of each
    image keyed -i for splice, made on first use; and its run cache,
    which holds the image of each run of moved letters that splice has
    met. Only letter tables are spliced, so a part's record never holds
    the inverse images."""

    def __init__(self, table):
        self.table, self.moved, self.runs = table, _moves(table), {}

    @cached_property
    def signed(self):
        return {**self.moved, **{-i: inverse(im) for i, im in self.moved.items()}}


def _table_power(t, k: int):
    """t^k (k >= 1) by repeated squaring."""
    acc = None
    while True:
        if k & 1:
            acc = t if acc is None else compose(acc, t)
        k >>= 1
        if not k:
            return acc
        t = compose(t, t)


@lru_cache(maxsize=8)
def evaluator(g: int) -> Evaluator:
    """The shared Evaluator of genus g, so the records of letters and
    Factored parts, in basis x and in its sibling's basis q, are built
    once across calls."""
    return Evaluator(g)


def checked_evaluator(g: int, env=None) -> Evaluator:
    """evaluator(g), once env, if given, is found to hold only genus g's
    own named words: the words it would evaluate anyway. The check is one
    comparison of item views; the name to quote is sought only if it fails."""
    ev = evaluator(g)
    if env and not env.items() <= ev.words.items():
        gen = next(gen for gen, word in env.items() if ev.words.get(gen) != word)
        raise ValueError(f"env gives {gen.label()} a word other than its own at genus {g}")
    return ev


def evaluate(word: Word, g: int, env=None):
    """Table of word, by the shared Evaluator of genus g; env, if given,
    is only checked (checked_evaluator)."""
    return checked_evaluator(g, env).evaluate(word)


def fixes_boundary(table, g: int) -> bool:
    w = boundary_word(g)
    return xsub(w, table) == w


def format_tables(g: int) -> str:
    """Printable dump of the tables of presentations.generators(g), the
    a_i, u_i and b_j that verify uses at genus g."""

    def show(name, t):
        ims = ", ".join(
            "x%d -> %s" % (i + 1, "".join(("x%d" % c) if c > 0 else ("X%d" % -c) for c in t[i]))
            for i in range(g)
            if t[i] != (i + 1,)
        )
        return f"{name}: {ims or 'identity'}"

    ev = evaluator(g)
    return "".join(show(x.label(), ev.letter_table(letter(x))) + "\n" for x in generators(g))
