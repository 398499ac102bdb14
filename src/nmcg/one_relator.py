"""Word problem and the innerness decision in the one-relator quotient
G_g = < x_1..x_g | x_1^2 x_2^2 ... x_g^2 >, the fundamental group of the
closed nonorientable surface.

For g >= 4 the relator R satisfies C'(1/6): pieces are single letters,
and 1 < |R|/6 = g/3. So Dehn's algorithm decides the word problem: any
nonempty freely reduced word equal to 1 contains more than half of a
cyclic shift of R or R^-1, and replacing it by the shorter complement
strictly shrinks the word.

The lookup is one table per genus: the 4g cyclic rotations of R and
R^-1, keyed by their first two letters, which name the rotation (x_i x_i
or x_i x_{i+1} in R, indices mod g, and their inverses in R^-1). A
window is more than half of a relator iff it has more than g letters and
is a prefix of the rotation its first two letters name, and it is
rewritten to the inverse of the rest of that rotation. One scan,
_longest_window, finds the window to rewrite, the longest first and the
leftmost among equals: dehn_reduce scans the word, cyclic_dehn_reduce
the cyclic word, where a long window can only lie across the end.

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
from .words import Word, cyclic_reduce, exponent_matrix, free_reduce, inverse, mul, power

VERIFIED = "Verified"
REFUTED = "Refuted"


@lru_cache(maxsize=None)
def _rotations(g: int) -> dict:
    """The 4g cyclic rotations of R = x_1^2...x_g^2 and of R^-1, keyed by
    their first two letters: x_i x_i or x_i x_{i+1} (indices mod g) in R,
    their inverses in R^-1, so no two rotations share a key."""
    if g < 4:
        raise ValueError(f"Dehn's algorithm needs C'(1/6), i.e. genus >= 4, not {g}")
    w = boundary_word(g)
    rots = (base[r:] + base[:r] for base in (w, inverse(w)) for r in range(2 * g))
    return {rot[:2]: rot for rot in rots}


def _longest_window(w: Word, g: int, top: int):
    """(pos, L, rot): the longest window w[pos:pos+L] that is more than
    half of a relator, the leftmost among equals, with rot the rotation
    it begins; None if there is none. Only windows of at most top
    letters are scanned. The rotation is the one the window's first two
    letters name, so the window is long iff it is a prefix of that
    rotation."""
    rots, m = _rotations(g), len(w)
    for L in range(min(top, 2 * g), g, -1):
        for pos in range(m - L + 1):
            rot = rots.get(w[pos : pos + 2])
            if rot is not None and w[pos + L - 1] == rot[L - 1] and w[pos : pos + L] == rot[:L]:
                return pos, L, rot
    return None


def dehn_reduce(w: Word, g: int) -> Word:
    """The Dehn-reduced form of a freely reduced word: empty iff the word
    is trivial in G_g. Like words.mul, it takes a freely reduced word and
    never re-scans it: each rewrite replaces a window by its relator
    complement, a reduced word, so only the two junctions can cancel.

    Each rewrite takes the window _longest_window finds: the longest
    first, the leftmost among equals, looked up by its first two letters
    in the table of relator rotations. Dehn-reduced forms of one element
    are not unique, so the form returned, and with it every printed
    tier-3 conjugator, depends on that order."""
    while (hit := _longest_window(w, g, len(w))) is not None:
        pos, L, rot = hit
        w = mul(w[:pos], inverse(rot[L:]), w[pos + L :])
    return w


def equal_in_quotient(lhs: Word, rhs: Word, g: int) -> bool:
    """lhs = rhs in G_g, for freely reduced lhs and rhs."""
    return dehn_reduce(mul(lhs, inverse(rhs)), g) == ()


def cyclic_dehn_reduce(word, g: int) -> tuple:
    """(q, c) with word = q c q^-1 in G_g and c cyclically Dehn-reduced."""
    q, w = [], dehn_reduce(word, g)
    while True:
        core = cyclic_reduce(w)
        q.extend(w[: (len(w) - len(core)) // 2])
        w = core
        # scan the cyclic word w: the windows of w + w[:-1], no longer
        # than w. Dehn-reduced w has no long window inside either copy,
        # so the one found lies across its end
        hit = _longest_window(w + w[:-1], g, len(w))
        if hit is None:
            return free_reduce(q), w
        pos = hit[0]
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
