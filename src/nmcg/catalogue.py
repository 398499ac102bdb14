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
tier 0: not representation-verifiable here (small-genus closed cases);
        covered by coset enumeration and homology instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Factored, Word, concat, inverse, lit, named, power
from .presentations import (
    a,
    arun,
    arun_down,
    b,
    c_word,
    chain_word,
    delta_word,
    lantern_d_word,
    nonorientable_mcg_presentation,
    r_word,
    slide_presentation,
    u,
    urun,
    urun_down,
    v_word,
)

@dataclass(frozen=True)
class Entry:
    tag: str
    params: tuple
    genus: int
    boundary: int
    lhs: Word
    rhs: Word
    tier: int
    twist: int = 0  # tier 2: the stated boundary-twist exponent k

    @property
    def word(self) -> Word:
        return concat(self.lhs, inverse(self.rhs))

    def label(self) -> str:
        p = ",".join(map(str, self.params))
        return f"{self.tag}({p})" if p else self.tag


def _chain3_rhs_delta() -> Word:
    d4 = delta_word(4)
    return concat(d4, inverse(b(1)), inverse(d4))


def _e6_exponent(g: int) -> int:
    return g if g % 2 == 0 else 2 * g


def punctured_entries(g: int) -> list:
    """Tier-1 and tier-2 entries valid in the genus-g one-boundary group."""
    E = []

    def add(tag, params, lhs, rhs, twist=0):
        E.append(Entry(tag, tuple(params), g, 1, lhs, rhs, 2 if twist else 1, twist))

    for i in range(1, g):
        add("star", (i,), concat(u(i), a(i), inverse(u(i))), inverse(a(i)))
        add("C4a", (i,), concat(a(i), u(i), a(i)), u(i))
    for i in range(1, g - 1):
        add("starstar", (i,), concat(u(i + 1), a(i), a(i + 1), u(i)), concat(a(i), a(i + 1)))
    for i in range(1, g):
        for j in range(1, g):
            if abs(i - j) > 1:
                add("C1a", (i, j), concat(a(i), u(j)), concat(u(j), a(i)))
    if g >= 4:
        add(
            "C6a",
            (),
            power(concat(b(1), u(3)), 2),
            concat(power(arun(1, 3), 2), power(urun(1, 3), 2)),
        )
    for i in range(5, g):
        add("C7a", (i,), concat(u(i), b(1)), concat(b(1), u(i)))
    if g >= 5:
        mid = concat(arun_down(4, 1), urun(1, 4))
        add("C9", (), concat(b(1), mid), concat(mid, b(1)))
    for k in range(2, g + 1):
        dk, dk1 = delta_word(k), delta_word(k - 1)
        dk2 = Factored(((dk, 2),))
        for i in range(1, k):
            add("B5", (k, i), Factored(((dk, 1), (u(i), 1))), Factored(((u(k - i), 1), (dk, 1))))
            add("E1", (k, i), Factored(((dk, 1), (a(i), 1))),
                Factored(((inverse(a(k - i)), 1), (dk, 1))))
        add("B6", (k,), dk, Factored(((dk1, 1), (urun_down(k - 1, 1), 1))))
        add("B7", (k,), dk2, Factored(((urun(1, k - 1), k),)))
        add("B8", (k,), dk2,
            Factored(((dk1, 2), (urun_down(k - 1, 1), 1), (urun(1, k - 1), 1))))
    stab = ()
    for m in range(g - 1, 0, -1):
        stab = concat(stab, urun(m, g - 2), power(u(g - 1), 2), urun_down(g - 2, m))
    dg2 = Factored(((delta_word(g), 2),))
    add("DeltaStab", (), dg2, stab)
    rg = r_word(g)
    add("E2", (), Factored(((rg, 2),)), dg2)
    for i in range(2, g):
        add("E3", (i,), concat(rg, a(i)), concat(a(i), rg))
        add("E4", (i,), concat(u(i), rg, u(i)), rg)
    for rho in (2, 3):
        if g >= 2 * rho + 2:
            c1 = chain_word(rho - 1, 1)
            head6 = power(concat(b(rho - 2), arun(2 * rho - 2, 2 * rho + 1)), 6)
            add("A8a", (rho, "power"), power(c1, 2), head6)
            add(
                "A8a",
                (rho, "cokernel"),
                chain_word(rho - 1, 2),
                concat(power(c1, 2), b(rho)),
            )
    for rho in (2, 3):
        if g < 2 * rho + 2:
            continue
        c = lambda i: b(rho - 1) if i == 0 else a(2 * rho + 2 - i)
        d = b(rho - 2)
        for i in range(1, 2 * rho + 1):
            for j in range(i + 2, 2 * rho + 2):
                add("H1", (rho, i, j), concat(c(i), c(j)), concat(c(j), c(i)))
        for i in range(1, 2 * rho + 1):
            add(
                "H2",
                (rho, i),
                concat(c(i), c(i + 1), c(i)),
                concat(c(i + 1), c(i), c(i + 1)),
            )
        for i in range(1, 2 * rho + 2):
            if i != 2:
                add("H3", (rho, i), concat(c(0), c(i)), concat(c(i), c(0)))
        add("H4", (rho,), concat(c(0), c(2), c(0)), concat(c(2), c(0), c(2)))
        for i in range(1, 2 * rho + 2):
            if i != 4:
                add("H5", (rho, i), concat(d, c(i)), concat(c(i), d))
        add("H6", (rho,), concat(d, c(4), d), concat(c(4), d, c(4)))
    if g >= 6:
        v = v_word()
        lhs = concat(inverse(b(1)), inverse(concat(a(4), a(5), u(5), u(4))), b(1))
        rhs = concat(
            a(4), a(5), inverse(u(4)), v, u(4), v, inverse(a(5)), inverse(a(4))
        )
        add("inS2", (), lhs, rhs)
    if g == 2:
        y1 = lit(named("y1"))
        add("smallgenus", ("2,1", "1"), concat(a(1), y1, a(1)), y1)
    if g == 3:
        for r in slide_presentation(3, 1).relators:
            add(r.tag, r.params, r.lhs, r.rhs)
    # tier 2: relations of the capped surface, which hold at (g,1) up to
    # the stated power of the boundary twist. B4 is not one: it twists
    # about the curve around crosscaps 1..g-1, which bounds a Moebius
    # band only once the boundary is capped. It is tier 3 in
    # closed_entries; at (g,1) its word is Delta_{g-1}^2 (tier-1 B7(g-1))
    add("B7", (g, "closed"), dg2, (), twist=1)
    add("B3", (), Factored(((urun(1, g - 1), g),)), (), twist=1)
    if g == 4:  # G1 holds exactly; G2 and G3 up to one boundary twist
        x3 = power(arun(1, 3), 3)
        add(
            "G1",
            (),
            concat(b(1), u(3), u(2), inverse(b(1))),
            concat(x3, u(2), u(3), inverse(arun(1, 3))),
        )
        add(
            "G2",
            (),
            concat(b(1), u(3), u(2), u(1), b(1)),
            concat(x3, inverse(urun_down(3, 1)), x3),
            twist=1,
        )
        add("G3", (), power(concat(power(arun(1, 3), -4), b(1), lit(named("r4"))), 2), (),
            twist=1)
    return E


def closed_entries(g: int) -> list:
    """Tier-3 entries: relations of the closed mapping class group."""
    E = []

    def add(tag, params, lhs, rhs=(), tier=3):
        E.append(Entry(tag, tuple(params), g, 0, lhs, rhs, tier))

    if g < 4:
        raise ValueError(f"closed verification needs genus >= 4 (small cancellation), not {g}")
    rg = r_word(g)
    add("B3", (), power(urun(1, g - 1), g))
    add("B4", (), power(urun(1, g - 2), g - 1))
    add("B4a", (), concat(urun_down(g - 1, 1), urun(1, g - 1)))
    add("B4b", (), power(urun(2, g - 1), g - 1))
    mid = concat(arun(2, g - 1), urun_down(g - 1, 2))
    add("D", (), concat(a(1), mid, a(1)), mid)
    mid = concat(urun_down(g - 2, 1), arun(1, g - 2))
    add("Da", (), concat(a(g - 1), mid, a(g - 1)), mid)
    add("E2a", (), power(rg, 2))
    add("E3a", (1,), concat(rg, a(1)), concat(a(1), rg))
    add("E4a", (1,), concat(u(1), rg, u(1)), rg)
    add("E5", ("left",), power(arun(1, g - 1), 2), power(urun_down(g - 1, 1), -2))
    add("E5", ("right",), power(arun(1, g - 1), 2), power(urun(1, g - 1), 2))
    add("E6", (), power(arun(1, g - 1), _e6_exponent(g)))
    if g >= 5:
        lhs = concat(inverse(b(1)), power(arun(1, 3), 4))
        add("chain3", ("delta",), lhs, _chain3_rhs_delta(), 1)
        add("chain3", ("r",), lhs, concat(rg, b(1), rg))
    if g == 4:
        add("G3a", (), power(concat(b(1), lit(named("r4"))), 2))
    if g == 6:
        d = lantern_d_word()
        add(
            "lantern6",
            ("twist-product",),
            concat(b(2), a(1), a(3), a(5)),
            concat(c_word(), d, b(1)),
        )
        add(
            "lantern6",
            ("centralizer",),
            concat(inverse(c_word()), inverse(u(5)), d, u(5), c_word()),
            concat(inverse(u(5)), d, u(5)),
        )
    if g == 4:
        for r in slide_presentation(4, 0).relators:
            if r.tag == "smallgenus":
                k = r.params[1]
                tier = 1 if k in ("i", "ii", "vi", "vii") else 3
                E.append(Entry(r.tag, r.params, 4, 0, r.lhs, r.rhs, tier))
    return E


def catalogue(g: int, n: int) -> list:
    """All catalogue entries applicable at (g, n)."""
    if n == 1:
        return punctured_entries(g)
    return closed_entries(g)


def relation_index(g: int, n: int) -> dict:
    """(tag, params) -> equation, over presentation relators and the
    catalogue; used by the derivation replayer."""
    idx = {}
    for r in nonorientable_mcg_presentation(g, n).relators:
        idx[(r.tag, r.params)] = (r.lhs, r.rhs)
    if g >= 3:
        for e in punctured_entries(g):
            idx.setdefault((e.tag, e.params), (e.lhs, e.rhs))
    if n == 0 and g >= 4:
        for e in closed_entries(g):
            idx.setdefault((e.tag, e.params), (e.lhs, e.rhs))
    return idx
