"""Word problem and the innerness decision in the one-relator quotient
G_g = < x_1..x_g | x_1^2 x_2^2 ... x_g^2 >, the fundamental group of the
closed nonorientable surface.

For g >= 4 the relator R satisfies C'(1/6): pieces are single letters,
and 1 < |R|/6 = g/3. So Dehn's algorithm decides the word problem: any
nonempty freely reduced word equal to 1 contains more than half of a
cyclic shift of R or R^-1, and replacing it by the shorter complement
strictly shrinks the word.

A relation of the closed mapping class group, evaluated in the punctured
representation, must act as an inner automorphism of G_g (the filling
point-push). find_inner_conjugator() decides this exactly for a table
phi, with no search (Lyndon-Schupp, Combinatorial Group Theory, Ch. V
section 5, is the reference for the small-cancellation facts):

1. Thin annulus. Call a word cyclically Dehn-reduced when it is
   cyclically reduced and no cyclic subword is more than half of a
   relator. Let c be such a word, conjugate in G_g to x_1. A reduced
   annular diagram between c and x_1 is, under C'(1/6), a single layer:
   every region meets both boundaries. The inner boundary is one edge,
   so there is at most one region. Its label has 2g letters, of which at
   most one lies on the inner boundary and at most two on the piece
   where the region meets itself; the other 2g - 3 > g letters lie
   on the outer boundary, inside c read cyclically, which c excludes.
   So there is no region, c is conjugate to x_1 in the free group, and
   c = x_1. Hence: cyclically Dehn-reduce phi(x_1) to q c q^-1; if
   c != x_1, phi is not inner.
2. Cyclic centralizers. If phi is conjugation by u, then q^-1 u
   centralizes x_1. Centralizers in G_g are cyclic, and x_1 is no proper
   power (it is a basis vector of H_1 modulo torsion), so u = q x_1^k.
   Then psi = q^-1 phi q maps x_2 to x_1^k x_2 x_1^-k; reducing psi(x_2)
   to q2 c2 q2^-1 as in step 1 forces c2 = x_2 and q2 = x_1^k x_2^m.
3. Abelianization. The exponent-sum vector of a word is defined in G_g
   modulo (2, ..., 2), the vector of R. That of q2 is (k, m, 0, ..., 0)
   + t (2, ..., 2); coordinate 3 gives t, coordinates 1 and 2 then give
   k and m. One Dehn equality checks q2 = x_1^k x_2^m, and u = q x_1^k
   is the only possible conjugator: it is checked on every generator.

The result is Verified with u, or Refuted naming the first generator
whose image rules every conjugator out. Words are tuples of signed ints
(+i for x_i) and use the words kernel, as pi1_action's tables do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .pi1_action import boundary_word
from .words import Word, exponent_matrix, free_reduce, inverse, mul, power

VERIFIED = "Verified"
REFUTED = "Refuted"


@lru_cache(maxsize=None)
def _tables(g: int):
    if g < 4:
        raise ValueError(f"Dehn's algorithm needs C'(1/6), i.e. genus >= 4, not {g}")
    w = boundary_word(g)
    by_len = {L: {} for L in range(g + 1, 2 * g + 1)}
    for base in (w, inverse(w)):
        for r in range(2 * g):
            rot = base[r:] + base[:r]
            for L in range(g + 1, 2 * g + 1):
                by_len[L].setdefault(rot[:L], inverse(rot[L:]))
    return by_len


def dehn_reduce(w: Word, g: int) -> Word:
    """The Dehn-reduced form of a freely reduced word: empty iff the word
    is trivial in G_g. Like words.mul, it takes a freely reduced word and
    never re-scans it: each rewrite replaces a subword by its relator
    complement, a reduced word, so only the two junctions can cancel.

    The rewrite order is fixed: the longest window first, the leftmost
    among equals. Dehn-reduced forms of one element are not unique, so
    the form returned, and with it every printed tier-3 conjugator,
    depends on that order."""
    tables = _tables(g)
    changed = True
    while changed:
        changed = False
        for L in range(min(len(w), 2 * g), g, -1):
            tab = tables[L]
            for pos in range(len(w) - L + 1):
                repl = tab.get(w[pos : pos + L])
                if repl is not None:
                    w = mul(w[:pos], repl, w[pos + L :])
                    changed = True
                    break
            if changed:
                break
    return w


def equal_in_quotient(lhs: Word, rhs: Word, g: int) -> bool:
    """lhs = rhs in G_g, for freely reduced lhs and rhs."""
    return dehn_reduce(mul(lhs, inverse(rhs)), g) == ()


def cyclic_dehn_reduce(word, g: int) -> tuple:
    """(q, c) with word = q c q^-1 in G_g and c cyclically Dehn-reduced."""
    tables = _tables(g)
    q, w = [], dehn_reduce(word, g)
    while True:
        while len(w) > 1 and w[0] == -w[-1]:
            q.append(w[0])
            w = w[1:-1]
        n, ww = len(w), w + w
        # Dehn-reduced w has no long subword inside it, only across its end
        pos = next((p for L in range(min(n, 2 * g), g, -1)
                    for p in range(n - L + 1, n) if ww[p : p + L] in tables[L]),
                   None)
        if pos is None:
            return free_reduce(q), w
        q.extend(w[:pos])
        w = dehn_reduce(w[pos:] + w[:pos], g)


def _x1_exponent(q2: Word, g: int):
    """k with q2 = x_1^k x_2^m in G_g, or None when no such k, m exist."""
    sums = exponent_matrix([(q2, ())], range(1, g + 1))[0]
    t2 = sums[2]
    if t2 % 2 or any(s != t2 for s in sums[3:]):
        return None
    k, m = sums[0] - t2, sums[1] - t2
    return k if equal_in_quotient(q2, mul(power((1,), k), power((2,), m)), g) else None


@dataclass
class ConjugacyResult:
    status: str
    conjugator: Word | None = None
    generator: int | None = None  # the failing x_i of a refutation


def find_inner_conjugator(table, g: int) -> ConjugacyResult:
    """Decide whether the automorphism given by table is conjugation by
    some u in G_g, i.e. table(x_i) = u x_i u^-1 in the quotient for all
    i (g >= 4). Returns Verified with u, or Refuted with the first
    generator whose image fails."""
    q, c = cyclic_dehn_reduce(table[0], g)
    if c != (1,):
        return ConjugacyResult(REFUTED, generator=1)
    q2, c2 = cyclic_dehn_reduce(mul(inverse(q), table[1], q), g)
    k = _x1_exponent(q2, g) if c2 == (2,) else None
    if k is None:
        return ConjugacyResult(REFUTED, generator=2)
    u = dehn_reduce(mul(q, power((1,), k)), g)
    ui = inverse(u)
    for i in range(1, g + 1):
        if dehn_reduce(mul(u, (i,), ui, inverse(table[i - 1])), g):
            return ConjugacyResult(REFUTED, generator=i)
    return ConjugacyResult(VERIFIED, u)
