"""Catalogue of derived relations, each carrying the verification tier
at which it is expected to hold.

tier 1: the two sides evaluate to the same automorphism of pi_1 of the
        punctured surface (exact table equality).
tier 2: lhs = rhs times the k-th power of the boundary twist, for the
        k the entry states (Entry.twist): relations of the capped
        surface, checked exactly at every genus.
tier 3: the relator becomes an inner automorphism of the one-relator
        quotient pi_1(closed surface); decided exactly by cyclic Dehn
        reduction, which finds the conjugator or names the generator
        whose image rules it out (needs g >= 4 for the small-cancellation
        condition).

The relations of the presentations of (3,1) and (4,0) that carry the
crosscap slide d are entries here, tagged smallgenus.

Each relation is stated once per surface, up to cyclic rotation and
inversion at one tier and twist: a family starts where it stops
restating a presentation relator or another entry.

An entry is a presentations.Entry, the record that holds each
presentation relator too. A relator's tier is the one at which it
holds: 3 for B3, B4, D and the relators of (2,0) and (3,0), which hold
only once the boundary is capped, and 1 for every other relator.
"""

from __future__ import annotations

from .words import Factored, Word, inverse, letters, lit, mul, named, power
from .presentations import (
    Entry,
    a,
    arun,
    arun_down,
    b,
    c_word,
    chain_head,
    chain_power,
    chain_word,
    delta_word,
    lantern_d_word,
    nonorientable_mcg_presentation,
    r_word,
    u,
    urun,
    urun_down,
    v_word,
)


def _chain3_rhs_delta() -> Word:
    d4 = letters(delta_word(4))
    return mul(d4, inverse(b(1)), inverse(d4))


def _e6_exponent(g: int) -> int:
    return g if g % 2 == 0 else 2 * g


def punctured_entries(g: int) -> list:
    """Tier-1 and tier-2 entries valid in the genus-g one-boundary group."""
    E = []

    def add(tag, params, lhs, rhs, twist=0):
        E.append(Entry(tag, tuple(params), g, 1, lhs, rhs, 2 if twist else 1, twist))

    # from i = 2: star(1) is C4, starstar(1) is C5 and C1a(1,j) is C1(j);
    # a_i u_i a_i = u_i is star(i) too
    for i in range(2, g):
        add("star", (i,), mul(u(i), a(i), inverse(u(i))), inverse(a(i)))
    for i in range(2, g - 1):
        add("starstar", (i,), mul(u(i + 1), a(i), a(i + 1), u(i)), mul(a(i), a(i + 1)))
    for i in range(2, g):
        for j in range(1, g):
            if abs(i - j) > 1:
                add("C1a", (i, j), mul(a(i), u(j)), mul(u(j), a(i)))
    if g >= 4:
        add("C6a", (), power(mul(b(1), u(3)), 2), mul(power(arun(1, 3), 2), power(urun(1, 3), 2)))
    for i in range(6, g):  # C7a(5) is C7
        add("C7a", (i,), mul(u(i), b(1)), mul(b(1), u(i)))
    if g >= 5:
        mid = mul(arun_down(4, 1), urun(1, 4))
        add("C9", (), mul(b(1), mid), mul(mid, b(1)))
    # E1 and B8 from k = 3: at k = 2 (Delta_2 = u_1) B5-B8 have one flat
    # word on both sides and E1 is star(1). B5 and B7 from k = 4: at k = 3
    # they are B2(1). B6 from k = 5: B6(3) is flat-equal, B6(4) is B1(1,3)
    for k in range(3, g + 1):
        dk, dk1 = delta_word(k), delta_word(k - 1)
        dk2 = Factored(((dk, 2),))
        for i in range(1, k):
            if k >= 4:
                add("B5", (k, i), Factored(((dk, 1), (u(i), 1))), Factored(((u(k - i), 1), (dk, 1))))
            add("E1", (k, i), Factored(((dk, 1), (a(i), 1))),
                Factored(((inverse(a(k - i)), 1), (dk, 1))))
        if k >= 5:
            add("B6", (k,), dk, Factored(((dk1, 1), (urun_down(k - 1, 1), 1))))
        if k >= 4:
            add("B7", (k,), dk2, Factored(((urun(1, k - 1), k),)))
        add("B8", (k,), dk2,
            Factored(((dk1, 2), (urun_down(k - 1, 1), 1), (urun(1, k - 1), 1))))
    stab = ()
    for m in range(g - 1, 0, -1):
        stab = mul(stab, urun(m, g - 2), power(u(g - 1), 2), urun_down(g - 2, m))
    dg2 = Factored(((delta_word(g), 2),))
    if g >= 3:  # DeltaStab is one flat word at g = 2 and 1 = 1 at g = 1
        add("DeltaStab", (), dg2, stab)
    rg = r_word(g)
    if g >= 2:  # E2 is 1 = 1 at g = 1
        add("E2", (), Factored(((rg, 2),)), dg2)
    for i in range(2, g):
        add("E3", (i,), Factored(((rg, 1), (a(i), 1))), Factored(((a(i), 1), (rg, 1))))
        add("E4", (i,), Factored(((u(i), 1), (rg, 1), (u(i), 1))), rg)
    for rho in (2, 3):
        if g >= 2 * rho + 2:
            c1 = chain_word(rho - 1)
            add("A8a", (rho, "power"), power(c1, 2), Factored(((chain_head(rho - 1), 6),)))
            add("A8a", (rho, "cokernel"), chain_power(rho - 1), mul(power(c1, 2), b(rho)))
    # the relations of b_{rho-2} (H5, H6 at rho = 2) and b_{rho-1} (H3, H4
    # at rho = 3) with a_1..a_{2rho+1}: the others, with b_1, are A3 and
    # A4, and those among the a_i (H1, H2) are A1 and A2
    for rho, x, hole, tags in ((2, b(0), 4, ("H5", "H6")), (3, b(2), 2, ("H3", "H4"))):
        if g < 2 * rho + 2:
            continue
        c = lambda i: a(2 * rho + 2 - i)
        for i in range(1, 2 * rho + 2):
            if i != hole:
                add(tags[0], (rho, i), mul(x, c(i)), mul(c(i), x))
        add(tags[1], (rho,), mul(x, c(hole), x), mul(c(hole), x, c(hole)))
    if g >= 6:
        v = v_word()
        lhs = mul(inverse(b(1)), inverse(mul(a(4), a(5), u(5), u(4))), b(1))
        rhs = mul(a(4), a(5), inverse(u(4)), v, u(4), v, inverse(a(5)), inverse(a(4)))
        add("inS2", (), lhs, rhs)
    if g == 3:  # the presentation of (3,1) on a_1, a_2, u_2 and the crosscap slide d
        d = lit(named("d"))
        sg = lambda k, lhs, rhs: add("smallgenus", ("g3n1", k), lhs, rhs)
        # (ii) a_2 a_1 a_2 = a_1 a_2 a_1 is A2(1); (iv) u_2 a_2 u_2^-1 = a_2^-1 is star(2)
        sg("i", mul(a(2), d), mul(d, a(2)))
        sg("iii", mul(d, a(1), d), mul(a(1), d, a(1)))
        sg("v", mul(u(2), a(1), inverse(u(2))), mul(a(1), inverse(d), inverse(a(1))))
        sg("vi", power(mul(d, u(2)), 2), power(mul(u(2), d), 2))
        sg("vii", power(mul(d, u(2)), 2), Factored(((mul(a(2), d, d, a(1)), 3),)))
    # tier 2: relations of the capped surface, which hold at (g,1) up to
    # the stated power of the boundary twist. B4 is not one: it twists
    # about the curve around crosscaps 1..g-1, which bounds a Moebius
    # band only once the boundary is capped. It is tier 3 in
    # closed_entries; at (g,1) its word is Delta_{g-1}^2 (tier-1 B7(g-1))
    if g >= 3:  # at g <= 2, Delta_g^2 is B3's word
        add("B7", (g, "closed"), dg2, (), twist=1)
    if g >= 2:  # at g = 1 both sides are empty and pass for every twist
        add("B3", (), Factored(((urun(1, g - 1), g),)), (), twist=1)
    if g == 4:  # G1 holds exactly; G2 and G3 up to one boundary twist
        x3 = power(arun(1, 3), 3)
        add("G1", (), mul(b(1), u(3), u(2), inverse(b(1))), mul(x3, u(2), u(3), inverse(arun(1, 3))))
        add("G2", (), mul(b(1), u(3), u(2), u(1), b(1)), mul(x3, inverse(urun_down(3, 1)), x3),
            twist=1)
        add("G3", (), power(mul(power(arun(1, 3), -4), b(1), lit(named("r4"))), 2), (),
            twist=1)
    return E


def closed_entries(g: int) -> list:
    """Tier-3 entries: relations of the closed mapping class group.
    Every power p^k with k >= 3, B3, B4, B4b, E6 and at g = 4 smallgenus
    viii, is a one-part Factored power, which verify builds by squaring;
    every other side is a plain word, r_g and Delta_4 in it taken by
    their letters."""
    E = []

    def add(tag, params, lhs, rhs=(), tier=3):
        E.append(Entry(tag, tuple(params), g, 0, lhs, rhs, tier))

    if g < 4:
        raise ValueError(f"closed verification needs genus >= 4 (small cancellation), not {g}")
    rg = letters(r_word(g))
    add("B3", (), Factored(((urun(1, g - 1), g),)))
    add("B4", (), Factored(((urun(1, g - 2), g - 1),)))
    add("B4a", (), mul(urun_down(g - 1, 1), urun(1, g - 1)))
    add("B4b", (), Factored(((urun(2, g - 1), g - 1),)))
    mid = mul(arun(2, g - 1), urun_down(g - 1, 2))
    add("D", (), mul(a(1), mid, a(1)), mid)
    mid = mul(urun_down(g - 2, 1), arun(1, g - 2))
    add("Da", (), mul(a(g - 1), mid, a(g - 1)), mid)
    add("E2a", (), power(rg, 2))
    add("E3a", (1,), mul(rg, a(1)), mul(a(1), rg))
    add("E4a", (1,), mul(u(1), rg, u(1)), rg)
    add("E5", ("left",), power(arun(1, g - 1), 2), power(urun_down(g - 1, 1), -2))
    add("E5", ("right",), power(arun(1, g - 1), 2), power(urun(1, g - 1), 2))
    add("E6", (), Factored(((arun(1, g - 1), _e6_exponent(g)),)))
    if g >= 5:
        lhs = mul(inverse(b(1)), power(arun(1, 3), 4))
        add("chain3", ("delta",), lhs, _chain3_rhs_delta(), 1)
        add("chain3", ("r",), lhs, mul(rg, b(1), rg))
    if g == 4:
        r4, d = lit(named("r4")), lit(named("d"))
        add("G3a", (), power(mul(b(1), r4), 2))
        # the presentation of (4,0) on a_i, u_i, b, r_4 and the crosscap slide d
        sg = lambda k, tier, lhs, rhs=(): add("smallgenus", ("g4n0", k), lhs, rhs, tier)
        sg("i", 1, r4, mul(arun(1, 3), urun_down(3, 1)))
        sg("ii", 1, mul(u(3), a(2), inverse(u(3))), mul(a(2), inverse(d), inverse(a(2))))
        sg("iii", 3, power(u(1), 2), power(u(3), 2))
        sg("iv", 3, power(mul(u(3), b(1)), 2))
        sg("v", 3, power(mul(u(3), d), 2))
        sg("vi", 1, mul(d, a(3)), mul(a(3), d))
        sg("vii", 1, mul(d, a(2), d), mul(a(2), d, a(2)))
        sg("viii", 3, Factored(((mul(d, a(2), a(3)), 4),)))
        sg("ix", 3, mul(u(3), d, inverse(u(3))), mul(u(1), d, inverse(u(1))))
    if g == 6:
        d = lantern_d_word()
        add("lantern6", ("twist-product",), mul(b(2), a(1), a(3), a(5)), mul(c_word(), d, b(1)))
        add("lantern6", ("centralizer",), mul(inverse(c_word()), inverse(u(5)), d, u(5), c_word()),
            mul(inverse(u(5)), d, u(5)))
    return E


def catalogue(g: int, n: int) -> list:
    """All catalogue entries applicable at (g, n)."""
    if n == 1:
        return punctured_entries(g)
    return closed_entries(g)


def citable(record: Entry, g: int, n: int, tier: int) -> bool:
    """A derivation at (g, n) and tier may cite record, a relator, a
    catalogue entry or a replayed script's conclusion: at (g,0) any
    relation of genus g, since capping the boundary makes the twist
    trivial; at (g,1) only a relation of (g,1) of that tier or a lower
    one, since a tier-2 relation holds there only up to the boundary
    twist, which is central."""
    return record.genus == g and (n == 0 or (record.boundary == 1 and record.tier <= tier))


def relation_index(g: int, n: int) -> dict:
    """(tag, params) -> record, over the presentation relators and the
    catalogue entries of genus g that a derivation at (g, n) may name,
    every record that verify(g, n) decides among them;
    used by the derivation replayer, which asks citable of the record a
    step cites, so that a relation the script's tier may not cite is
    told apart from one the surface lacks."""
    records = [*nonorientable_mcg_presentation(g, n).relators, *punctured_entries(g)]
    if n == 0 and g >= 4:
        records += closed_entries(g)
    idx = {}
    for e in records:
        idx.setdefault((e.tag, e.params), e)
    return idx
