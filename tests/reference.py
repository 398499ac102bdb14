"""Reference definitions for the tests: the plain rules that every fast
path of pi1_action must match.

reference_table folds a flat word from the identity in basis x, one
substitution (xsub) per image per letter, with no Factored parts, no
cache, no splice, no letter step and no squaring. Named letters are
expanded to their defining words first, and the a_i, u_i and b_j tables
are built afresh for each letter by the same builders the Evaluator
uses, which other tests pin.

dehn_windows and the two Dehn reductions below are the rewrite order of
one_relator spelled out by plain table lookups: a dict per window length
L = g+1..2g, keyed by every window of that length of a rotation of the
relator or its inverse, and a full re-scan after each rewrite."""

from nmcg.pi1_action import boundary_word, crosscap_transposition, curve_twist, identity_table, xsub
from nmcg.presentations import expansion_env
from nmcg.words import cyclic_reduce, free_reduce, gen_of, inverse, letters, mul, power


def conjugation_table(w, g):
    """Conjugation by the freely reduced w."""
    return tuple(mul(w, (i,), inverse(w)) for i in range(1, g + 1))


def _expand(word, words):
    """The a/u/b letters of word, each named letter replaced, recursively,
    by its defining word in words."""
    for c in word:
        named = words.get(gen_of(c))
        if named is None:
            yield c
        else:
            yield from _expand(named if c > 0 else inverse(named), words)


def _generator_table(c, g):
    x, sign = gen_of(c), 1 if c > 0 else -1
    if x.fam == "a":
        return curve_twist(x.idx, 2, g, sign)
    if x.fam == "b":
        return curve_twist(1, 2 * x.idx + 2, g, sign)
    if x.fam == "u":
        return crosscap_transposition(x.idx, g, sign)
    raise KeyError(f"no table for {x.label()} at genus {g}")


def reference_table(word, g):
    """T(word) in basis x: from the identity, T so far after T(c) for each
    letter c in turn, every image of T(c) substituted by xsub."""
    words = {**expansion_env(g, 0), **expansion_env(g, 1)}
    acc = identity_table(g)
    for c in _expand(letters(word), words):
        acc = tuple(xsub(im, acc) for im in _generator_table(c, g))
    return acc


def reference_holds(lhs, rhs, g, k):
    """lhs = rhs times the k-th power of the boundary twist, by reference
    tables: T(lhs) == C o T(rhs), C conjugation by W^k (k = 0 at tier 1)."""
    conj = conjugation_table(power(boundary_word(g), k), g)
    return reference_table(lhs, g) == tuple(xsub(im, conj) for im in reference_table(rhs, g))


def dehn_windows(g):
    """L -> {window of length L: its relator complement, inverted}, for
    every window of more than half of a rotation of R = x_1^2...x_g^2
    or R^-1."""
    w = boundary_word(g)
    by_len = {L: {} for L in range(g + 1, 2 * g + 1)}
    for base in (w, inverse(w)):
        for r in range(2 * g):
            rot = base[r:] + base[:r]
            for L in range(g + 1, 2 * g + 1):
                by_len[L].setdefault(rot[:L], inverse(rot[L:]))
    return by_len


def rescanning_dehn_reduce(word, g):
    """free_reduce on entry and after every rewrite; each rewrite takes
    the longest window in dehn_windows, the leftmost among equals."""
    tables = dehn_windows(g)
    w = free_reduce(word)
    while True:
        hits = ((pos, L) for L in range(min(len(w), 2 * g), g, -1)
                for pos in range(len(w) - L + 1) if w[pos : pos + L] in tables[L])
        pos, L = next(hits, (None, None))
        if pos is None:
            return w
        w = free_reduce(w[:pos] + tables[L][w[pos : pos + L]] + w[pos + L :])


def straddling_cyclic_dehn_reduce(word, g):
    """(q, c) as cyclic_dehn_reduce: the longest window of c + c in
    dehn_windows that starts in c and ends past it, the leftmost among
    equals, is rotated to the front and rewritten, until none is left."""
    tables = dehn_windows(g)
    q, w = [], rescanning_dehn_reduce(word, g)
    while True:
        core = cyclic_reduce(w)
        q.extend(w[: (len(w) - len(core)) // 2])
        w = core
        n, ww = len(w), w + w
        pos = next((p for L in range(min(n, 2 * g), g, -1)
                    for p in range(n - L + 1, n) if ww[p : p + L] in tables[L]), None)
        if pos is None:
            return free_reduce(q), w
        q.extend(w[:pos])
        w = rescanning_dehn_reduce(w[pos:] + w[:pos], g)
