"""Reference definitions for the tests: the plain rules that every fast
path of pi1_action must match.

reference_table folds a flat word from the identity in basis x, one
substitution (xsub) per image per letter, with no Factored parts, no
cache, no splice, no letter step and no squaring. Named letters are
expanded to their defining words first, and the a_i, u_i and b_j tables
are built afresh for each letter by the same builders the Evaluator
uses, which other tests pin."""

from nmcg.pi1_action import boundary_word, crosscap_transposition, curve_twist, identity_table, xsub
from nmcg.presentations import expansion_env
from nmcg.words import gen_of, inverse, mul, power


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
    for c in _expand(tuple(word), words):
        acc = tuple(xsub(im, acc) for im in _generator_table(c, g))
    return acc


def reference_holds(lhs, rhs, g, k):
    """lhs = rhs times the k-th power of the boundary twist, by reference
    tables: T(lhs) == C o T(rhs), C conjugation by W^k (k = 0 at tier 1)."""
    conj = conjugation_table(power(boundary_word(g), k), g)
    return reference_table(lhs, g) == tuple(xsub(im, conj) for im in reference_table(rhs, g))
