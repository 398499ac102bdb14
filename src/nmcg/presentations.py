"""Finite presentations of mapping class groups of nonorientable
surfaces (genus g, 0 or 1 boundary components), plus the braid-type
presentations that feed into them.

Generators: a_i (twists about two-sided curves through crosscaps i,
i+1), u_i (crosscap transpositions), b_j (twists about the curves through
the first 2j+2 crosscaps; b_0 = a_1, b_1 written b). Small-genus groups
get their classical ad-hoc presentations. A relator is an Entry, the
one relation record that the catalogue uses too: the equation lhs = rhs
at its (genus, boundary) and tier, whose single-word form lhs * rhs^-1
is its cached word. B3, B4 and D, and every relator of (2,0) and (3,0),
are tier 3: they hold only once the boundary is capped. Every other
relator is tier 1. Generators and relators are built in the order they
are printed: a, u, b by index, and relators by tag A1 ... C8, D with
ascending params. The relations carrying the crosscap slide d at (3,1)
and (4,0) are catalogue entries.

The builders trust what they build: a, u and b return cached one-letter
words (the runs read those letters), and every side is joined by mul,
power or Factored from pieces that are already freely reduced (letters,
runs, powers, inverses and other kernel output), so no side is
re-scanned. A side that is a power p^k with k >= 3 (A5, A6, B3, B4 and
the sixth power of (3,0)) is the one-part Factored power ((p, k),),
whose table verify builds by squaring; A8's right side, a product of
two powers, and the exponent-2 sides stay plain. Each relator's record
is made once, where it is built, with both sides as built. A test, not
a re-scan here, checks that every relator and catalogue side is
reduced: a builder that passes an unreduced piece fails it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .words import (
    Factored,
    Gen,
    Word,
    fmt,
    gen,
    inverse,
    letter,
    letters,
    lit,
    mul,
    named,
    parse,
    power,
    substitute,
)


@lru_cache(maxsize=None)
def a(i: int) -> Word:
    return lit(gen("a", i))


@lru_cache(maxsize=None)
def u(i: int) -> Word:
    return lit(gen("u", i))


@lru_cache(maxsize=None)
def b(j: int) -> Word:
    return lit(gen("b", j))


def arun(i: int, j: int) -> Word:
    """a_i a_{i+1} ... a_j; empty when j < i."""
    return tuple(a(k)[0] for k in range(i, j + 1))


def urun(i: int, j: int) -> Word:
    return tuple(u(k)[0] for k in range(i, j + 1))


def arun_down(i: int, j: int) -> Word:
    """a_i a_{i-1} ... a_j; empty when j > i."""
    return tuple(a(k)[0] for k in range(i, j - 1, -1))


def urun_down(i: int, j: int) -> Word:
    return tuple(u(k)[0] for k in range(i, j - 1, -1))


@lru_cache(maxsize=None)
def delta_word(k: int) -> Word:
    """Half-twist Delta_k = (u_1..u_{k-1}) * Delta_{k-1}, a Factored word
    from k = 3; Delta_1 and Delta_2 are the plain words 1 and u_1. Cached
    so that the recursion builds each Delta_k once."""
    if k <= 2:
        return urun(1, k - 1)
    return Factored(((urun(1, k - 1), 1), (delta_word(k - 1), 1)))


@lru_cache(maxsize=None)
def r_word(g: int) -> Factored:
    """r_g = a_1..a_{g-1} u_{g-1}..u_1, built once per g."""
    return Factored(((arun(1, g - 1), 1), (urun_down(g - 1, 1), 1)))


def y_word(i: int) -> Word:
    return mul(a(i), u(i))


def v_word() -> Word:
    return mul(arun_down(3, 1), urun(1, 3))


def c_word() -> Word:
    s = power(arun(1, 5), 2)
    return mul(s, b(1), inverse(s))


def chain_head(i: int) -> Word:
    """b_{i-1} a_{2i} a_{2i+1} a_{2i+2} a_{2i+3}, the head of the chain
    b_{i-1}, a_{2i}, ..., a_{2i+3}, b_i that relator A8(i) and the A8a
    entries use."""
    return mul(b(i - 1), arun(2 * i, 2 * i + 3))


def chain_power(i: int) -> Factored:
    """(b_{i-1} a_{2i} ... a_{2i+3} b_i)^5, the fifth power of the whole
    chain chain_head(i) b_i, as its one part."""
    return Factored(((mul(chain_head(i), b(i)), 5),))


def chain_word(i: int) -> Word:
    """chain_head(i) followed by each of its nonempty proper prefixes,
    longest first: b_{i-1} a_{2i}..a_{2i+3} b_{i-1} a_{2i}..a_{2i+2} ... b_{i-1} a_{2i}
    b_{i-1}."""
    head = chain_head(i)
    return mul(*(head[:k] for k in range(len(head), 0, -1)))


def a8_word(i: int) -> Word:
    """Right side of relator A8(i), b_{i+1} = a8_word(i): chain_power(i)
    chain_head(i)^-6, a plain word over b_{i-1}, b_i and the a's."""
    return mul(letters(chain_power(i)), power(chain_head(i), -6))


def g3_slide_word() -> Word:
    return parse("a1^-1 u2 a1^-1 u2^-1 a1")


def g4_slide_word() -> Word:
    return parse("a2^-1 u3 a2^-1 u3^-1 a2")


def lantern_d_word() -> Word:
    s = parse("a4 a3 a5 a4")
    return mul(inverse(s), b(1), s)


def expansion_env(g: int, n: int) -> dict:
    """Defining words for the named elements at (g, n), words over a_i,
    u_i and b_j."""
    env = {}
    if g >= 2:
        env[named("y1")] = y_word(1)
    if g >= 3:
        env[named("y2")] = y_word(2)
    if g >= 4:
        env[named("v")] = v_word()
        env[named(f"r{g}")] = letters(r_word(g))
    if g >= 6:
        env[named("c")] = c_word()
    if (g, n) == (3, 1):
        env[named("d")] = g3_slide_word()
    if (g, n) == (4, 0):
        env[named("d")] = g4_slide_word()
    return env


@dataclass(unsafe_hash=True)
class Entry:
    """The relation lhs = rhs in M(N_{g,n}), g = genus and n = boundary,
    checked at tier (see catalogue): a presentation relator or a
    catalogue entry. Equal and hashed by its fields; it is not frozen,
    which would make each record about four times dearer to build, so
    no code assigns a field of a built record."""

    tag: str
    params: tuple
    genus: int
    boundary: int
    lhs: Word
    rhs: Word = ()
    tier: int = 1
    twist: int = 0  # tier 2: the stated boundary-twist exponent k

    @cached_property
    def word(self) -> Word:
        return mul(letters(self.lhs), inverse(letters(self.rhs)))

    def label(self) -> str:
        p = ",".join(map(str, self.params))
        return f"{self.tag}({p})" if p else self.tag

    def text(self) -> str:
        return f"{self.label()}: {fmt(self.lhs)} = {fmt(self.rhs)}"


@dataclass(frozen=True)
class Presentation:
    genus: int
    boundary: int
    generators: tuple
    relators: tuple

    def generator_labels(self):
        return [g.label() for g in self.generators]

    def to_text(self) -> str:
        lines = [f"genus {self.genus}, boundary {self.boundary}"]
        lines.append(" ".join(["generators:", *self.generator_labels()]))
        lines.extend(r.text() for r in self.relators)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "genus": self.genus,
            "boundary": self.boundary,
            "generators": self.generator_labels(),
            "relators": [
                {"tag": r.tag, "params": list(r.params), "word": fmt(r.word)}
                for r in self.relators
            ],
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _records(g: int, n: int):
    """An empty relator list for (g, n), and the function that appends
    the record of one relator lhs = rhs at a tier (1 unless stated) to it."""
    rels = []

    def add(tag, params, lhs, rhs=(), tier=1):
        rels.append(Entry(tag, params, g, n, lhs, rhs, tier))

    return rels, add


def _twist_relators(g: int, add) -> None:
    """A-family: relations among a_1..a_{g-1} and the b_j."""
    for i in range(1, g - 1):
        for j in range(i + 2, g):
            add("A1", (i, j), mul(a(i), a(j)), mul(a(j), a(i)))
    for i in range(1, g - 1):
        add("A2", (i,), mul(a(i), a(i + 1), a(i)), mul(a(i + 1), a(i), a(i + 1)))
    if g >= 4:
        for i in range(1, g):
            if i != 4:
                add("A3", (i,), mul(a(i), b(1)), mul(b(1), a(i)))
    if g >= 5:
        add("A4", (), mul(b(1), a(4), b(1)), mul(a(4), b(1), a(4)))
        add("A5", (), Factored(((mul(arun(2, 4), b(1)), 10),)),
            Factored(((mul(arun(1, 4), b(1)), 6),)))
    if g >= 7:
        add("A6", (), Factored(((mul(arun(2, 6), b(1)), 12),)),
            Factored(((mul(arun(1, 6), b(1)), 9),)))
    add("A7", (), b(0), a(1))
    i = 1
    while 2 * i <= g - 4:
        add("A8", (i,), b(i + 1), a8_word(i))
        i += 1
    if g >= 8 and g % 2 == 0:
        rho = (g - 2) // 2
        add("A9a", (rho,), mul(b(rho), a(2 * rho - 3)), mul(a(2 * rho - 3), b(rho)))
    if g == 6:
        add("A9b", (), mul(b(2), b(1)), mul(b(1), b(2)))


def _braid_relators(g: int, spherical: bool, add) -> None:
    for i in range(1, g - 1):
        for j in range(i + 2, g):
            add("B1", (i, j), mul(u(i), u(j)), mul(u(j), u(i)))
    for i in range(1, g - 1):
        add("B2", (i,), mul(u(i), u(i + 1), u(i)), mul(u(i + 1), u(i), u(i + 1)))
    if spherical:
        add("B3", (), Factored(((urun(1, g - 1), g),)), tier=3)
        add("B4", (), Factored(((urun(1, g - 2), g - 1),)), tier=3)


def _crosscap_relators(g: int, add) -> None:
    for i in range(3, g):
        add("C1", (i,), mul(a(1), u(i)), mul(u(i), a(1)))
    for i in range(1, g - 1):
        add("C2", (i,), mul(a(i), u(i + 1), u(i)), mul(u(i + 1), u(i), a(i + 1)))
    for i in range(1, g - 1):
        add("C3", (i,), mul(a(i + 1), u(i), u(i + 1)), mul(u(i), u(i + 1), a(i)))
    add("C4", (), mul(a(1), u(1), a(1)), u(1))
    add("C5", (), mul(u(2), a(1), a(2), u(1)), mul(a(1), a(2)))
    if g >= 4:
        add("C6", (), power(mul(u(3), b(1)), 2), mul(power(arun(1, 3), 2), power(urun(1, 3), 2)))
    if g >= 6:
        add("C7", (), mul(u(5), b(1)), mul(b(1), u(5)))
    if g >= 5:
        mid = mul(arun_down(4, 1), urun(1, 4))
        add("C8", (), mul(a(4), u(4), mid, b(1)), mul(b(1), a(4), u(4)))


def braid_presentation(g: int, spherical: bool = False) -> Presentation:
    """Braid-type presentation on u_1..u_{g-1}; when spherical, with B3
    and B4 and at boundary 0, since they hold only once it is capped."""
    if spherical and g < 3:  # B4, and at g = 1 also B3, would be empty
        raise ValueError(f"spherical braid presentation needs genus >= 3, not {g}")
    gens = tuple(gen("u", i) for i in range(1, g))
    rels, add = _records(g, 0 if spherical else 1)
    _braid_relators(g, spherical, add)
    return Presentation(g, 0 if spherical else 1, gens, tuple(rels))


def _small_genus(g: int, n: int) -> Presentation:
    rels, add = _records(g, n)
    sg = lambda k, lhs, rhs=(): add("smallgenus", (f"{g},{n}", k), lhs, rhs, 3 if n == 0 else 1)
    if g == 1:
        return Presentation(g, n, (), ())
    y1, y2 = named("y1"), named("y2")
    if (g, n) == (2, 0):
        sg("1", power(a(1), 2))
        sg("2", power(lit(y1), 2))
        sg("3", power(mul(a(1), lit(y1)), 2))
        return Presentation(2, 0, (gen("a", 1), y1), tuple(rels))
    if (g, n) == (2, 1):
        sg("1", mul(a(1), lit(y1), a(1)), lit(y1))
        return Presentation(2, 1, (gen("a", 1), y1), tuple(rels))
    if (g, n) == (3, 0):
        sg("1", mul(a(1), a(2), a(1)), mul(a(2), a(1), a(2)))
        sg("2", power(lit(y2), 2))
        sg("3", power(mul(a(1), lit(y2)), 2))
        sg("4", power(mul(a(2), lit(y2)), 2))
        sg("5", Factored(((mul(a(1), a(2)), 6),)))
        return Presentation(3, 0, (gen("a", 1), gen("a", 2), y2), tuple(rels))
    raise ValueError(f"no small-genus presentation for ({g},{n})")


def generators(g: int) -> tuple:
    """a_1..a_{g-1}, u_1..u_{g-1} and b_0..b_{g//2-1}: the generators of
    the presentations of (g,1) and, from g = 4, of (g,0), in the order
    they are printed, and the ones whose tables verify uses at genus g."""
    return (*(gen(f, i) for f in "au" for i in range(1, g)), *(gen("b", j) for j in range(g // 2)))


def nonorientable_mcg_presentation(g: int, n: int) -> Presentation:
    """Presentation of the mapping class group of the nonorientable
    surface of genus g with n boundary components (n in {0, 1})."""
    if n not in (0, 1):
        raise ValueError(f"only 0 or 1 boundary components, not {n}")
    if g < 1:
        raise ValueError(f"genus must be >= 1, not {g}")
    if g <= 2 or (g, n) == (3, 0):
        return _small_genus(g, n)
    rels, add = _records(g, n)
    _twist_relators(g, add)
    _braid_relators(g, n == 0, add)
    _crosscap_relators(g, add)
    if n == 0:
        mid = mul(arun(2, g - 1), urun_down(g - 1, 2))
        add("D", (), mul(a(1), mid, a(1)), mid, tier=3)
    return Presentation(g, n, generators(g), tuple(rels))


def tietze_eliminate(pres: Presentation, victim: Gen) -> Presentation:
    """Remove a generator using the first relator in which it occurs
    exactly once. Each side is substituted in by its letters, so the
    relators of the result have plain sides."""
    v = letter(victim)
    for relator_index, rel in enumerate(pres.relators):
        if sum(1 for c in rel.word if abs(c) == v) == 1:
            break
    else:
        raise ValueError(f"no defining relator for {victim.label()}")
    w = rel.word
    pos = next(i for i, c in enumerate(w) if abs(c) == v)
    # w = p * victim^s * q = 1  =>  victim^s = p^-1 q^-1
    p, q = w[:pos], w[pos + 1 :]
    img = mul(inverse(p), inverse(q))
    if w[pos] < 0:
        img = inverse(img)
    sub = {v: img}
    gens = tuple(gn for gn in pres.generators if gn != victim)
    rels = tuple(
        replace(r, lhs=substitute(letters(r.lhs), sub), rhs=substitute(letters(r.rhs), sub))
        for i, r in enumerate(pres.relators)
        if i != relator_index
    )
    return Presentation(pres.genus, pres.boundary, gens, rels)
