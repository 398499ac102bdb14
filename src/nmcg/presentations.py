"""Finite presentations of mapping class groups of nonorientable
surfaces (genus g, 0 or 1 boundary components), plus the braid-type
presentations that feed into them.

Generators: a_i (twists about two-sided curves through crosscaps i,
i+1), u_i (crosscap transpositions), b_j (twists about the curves through
the first 2j+2 crosscaps; b_0 = a_1, b_1 written b). Small-genus groups
get their classical ad-hoc presentations. Relators are stored as
equations (lhs, rhs); the single-word form is lhs * rhs^-1. Generators
and relators are built in the order they are printed: a, u, b by index,
and relators by tag A1 ... C8, D with ascending params. The relations
carrying the crosscap slide d at (3,1) and (4,0) are catalogue entries.

The builders trust what they build: a, u and b return cached one-letter
words (the runs read those letters), every side is made freely reduced
by the word kernel, and _rel stores both sides as built. A test, not a
re-scan here, checks that every relator and catalogue side is reduced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .words import (
    Factored,
    Gen,
    Word,
    concat,
    fmt,
    gen,
    inverse,
    letter,
    lit,
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
def delta_word(k: int) -> Factored:
    """Half-twist Delta_k = (u_1..u_{k-1}) * Delta_{k-1}, empty for k <= 1.
    Cached so that the recursion builds each Delta_k once."""
    if k <= 1:
        return Factored(())
    return Factored(((urun(1, k - 1), 1), (delta_word(k - 1), 1)))


@lru_cache(maxsize=None)
def r_word(g: int) -> Factored:
    """r_g = a_1..a_{g-1} u_{g-1}..u_1, built once per g."""
    return Factored(((arun(1, g - 1), 1), (urun_down(g - 1, 1), 1)))


def y_word(i: int) -> Word:
    return concat(a(i), u(i))


def v_word() -> Word:
    return concat(arun_down(3, 1), urun(1, 3))


def c_word() -> Word:
    s = power(arun(1, 5), 2)
    return concat(s, b(1), inverse(s))


def a8_word(i: int) -> Word:
    """Right side of relator A8(i), b_{i+1} = a8_word(i): a word over
    b_{i-1}, b_i and the a's."""
    head = concat(b(i - 1), arun(2 * i, 2 * i + 3))
    return concat(power(concat(head, b(i)), 5), power(head, -6))


def chain_word(i: int, which: int) -> Word:
    if which not in (1, 2):
        raise ValueError(f"chain word {which} is not 1 or 2")
    if which == 2:
        return power(concat(b(i - 1), arun(2 * i, 2 * i + 3), b(i)), 5)
    w = ()
    for top in range(2 * i + 3, 2 * i - 1, -1):
        w = concat(w, b(i - 1), arun(2 * i, top) if top >= 2 * i else ())
    return concat(w, b(i - 1))


def g3_slide_word() -> Word:
    return parse("a1^-1 u2 a1^-1 u2^-1 a1")


def g4_slide_word() -> Word:
    return parse("a2^-1 u3 a2^-1 u3^-1 a2")


def lantern_d_word() -> Word:
    s = parse("a4 a3 a5 a4")
    return concat(inverse(s), b(1), s)


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
        env[named(f"r{g}")] = r_word(g)
    if g >= 6:
        env[named("c")] = c_word()
    if (g, n) == (3, 1):
        env[named("d")] = g3_slide_word()
    if (g, n) == (4, 0):
        env[named("d")] = g4_slide_word()
    return env


@dataclass(frozen=True)
class Relator:
    tag: str
    params: tuple
    lhs: Word
    rhs: Word = ()

    @cached_property  # writes __dict__ directly, so frozen does not stop it
    def word(self) -> Word:
        return concat(self.lhs, inverse(self.rhs))

    def text(self) -> str:
        head = self.tag + ("(%s)" % ",".join(map(str, self.params)) if self.params else "")
        return f"{head}: {fmt(self.lhs)} = {fmt(self.rhs)}"


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
        lines.append("generators: " + " ".join(self.generator_labels()))
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


def _rel(tag, params, lhs, rhs=()):
    return Relator(tag, tuple(params), lhs, rhs)


def _twist_relators(g: int) -> list:
    """A-family: relations among a_1..a_{g-1} and the b_j."""
    rels = []
    for i in range(1, g - 1):
        for j in range(i + 2, g):
            rels.append(_rel("A1", (i, j), concat(a(i), a(j)), concat(a(j), a(i))))
    for i in range(1, g - 1):
        rels.append(
            _rel("A2", (i,), concat(a(i), a(i + 1), a(i)), concat(a(i + 1), a(i), a(i + 1)))
        )
    if g >= 4:
        for i in range(1, g):
            if i != 4:
                rels.append(_rel("A3", (i,), concat(a(i), b(1)), concat(b(1), a(i))))
    if g >= 5:
        rels.append(
            _rel("A4", (), concat(b(1), a(4), b(1)), concat(a(4), b(1), a(4)))
        )
        rels.append(
            _rel(
                "A5",
                (),
                power(concat(arun(2, 4), b(1)), 10),
                power(concat(arun(1, 4), b(1)), 6),
            )
        )
    if g >= 7:
        rels.append(
            _rel(
                "A6",
                (),
                power(concat(arun(2, 6), b(1)), 12),
                power(concat(arun(1, 6), b(1)), 9),
            )
        )
    rels.append(_rel("A7", (), b(0), a(1)))
    i = 1
    while 2 * i <= g - 4:
        rels.append(_rel("A8", (i,), b(i + 1), a8_word(i)))
        i += 1
    if g >= 8 and g % 2 == 0:
        rho = (g - 2) // 2
        rels.append(
            _rel(
                "A9a",
                (rho,),
                concat(b(rho), a(2 * rho - 3)),
                concat(a(2 * rho - 3), b(rho)),
            )
        )
    if g == 6:
        rels.append(_rel("A9b", (), concat(b(2), b(1)), concat(b(1), b(2))))
    return rels


def _braid_relators(g: int, spherical: bool) -> list:
    rels = []
    for i in range(1, g - 1):
        for j in range(i + 2, g):
            rels.append(_rel("B1", (i, j), concat(u(i), u(j)), concat(u(j), u(i))))
    for i in range(1, g - 1):
        rels.append(
            _rel("B2", (i,), concat(u(i), u(i + 1), u(i)), concat(u(i + 1), u(i), u(i + 1)))
        )
    if spherical:
        rels.append(_rel("B3", (), power(urun(1, g - 1), g)))
        rels.append(_rel("B4", (), power(urun(1, g - 2), g - 1)))
    return rels


def _crosscap_relators(g: int) -> list:
    rels = []
    for i in range(3, g):
        rels.append(_rel("C1", (i,), concat(a(1), u(i)), concat(u(i), a(1))))
    for i in range(1, g - 1):
        rels.append(
            _rel(
                "C2",
                (i,),
                concat(a(i), u(i + 1), u(i)),
                concat(u(i + 1), u(i), a(i + 1)),
            )
        )
    for i in range(1, g - 1):
        rels.append(
            _rel(
                "C3",
                (i,),
                concat(a(i + 1), u(i), u(i + 1)),
                concat(u(i), u(i + 1), a(i)),
            )
        )
    rels.append(_rel("C4", (), concat(a(1), u(1), a(1)), u(1)))
    rels.append(_rel("C5", (), concat(u(2), a(1), a(2), u(1)), concat(a(1), a(2))))
    if g >= 4:
        rels.append(
            _rel(
                "C6",
                (),
                power(concat(u(3), b(1)), 2),
                concat(power(arun(1, 3), 2), power(urun(1, 3), 2)),
            )
        )
    if g >= 6:
        rels.append(_rel("C7", (), concat(u(5), b(1)), concat(b(1), u(5))))
    if g >= 5:
        mid = concat(arun_down(4, 1), urun(1, 4))
        rels.append(
            _rel(
                "C8",
                (),
                concat(a(4), u(4), mid, b(1)),
                concat(b(1), a(4), u(4)),
            )
        )
    return rels


def braid_presentation(g: int, spherical: bool = False) -> Presentation:
    """Braid-type presentation on u_1..u_{g-1} (B3, B4 when spherical)."""
    if spherical and g < 3:  # B4, and at g = 1 also B3, would be empty
        raise ValueError(f"spherical braid presentation needs genus >= 3, not {g}")
    gens = tuple(gen("u", i) for i in range(1, g))
    return Presentation(g, 1, gens, tuple(_braid_relators(g, spherical)))


def _small_genus(g: int, n: int) -> Presentation:
    sg = lambda k, lhs, rhs=(): _rel("smallgenus", (f"{g},{n}", k), lhs, rhs)
    if g == 1:
        return Presentation(g, n, (), ())
    y1, y2 = named("y1"), named("y2")
    if (g, n) == (2, 0):
        rels = (
            sg("1", power(a(1), 2)),
            sg("2", power(lit(y1), 2)),
            sg("3", power(concat(a(1), lit(y1)), 2)),
        )
        return Presentation(2, 0, (gen("a", 1), y1), rels)
    if (g, n) == (2, 1):
        rels = (sg("1", concat(a(1), lit(y1), a(1)), lit(y1)),)
        return Presentation(2, 1, (gen("a", 1), y1), rels)
    if (g, n) == (3, 0):
        rels = (
            sg("1", concat(a(1), a(2), a(1)), concat(a(2), a(1), a(2))),
            sg("2", power(lit(y2), 2)),
            sg("3", power(concat(a(1), lit(y2)), 2)),
            sg("4", power(concat(a(2), lit(y2)), 2)),
            sg("5", power(concat(a(1), a(2)), 6)),
        )
        return Presentation(3, 0, (gen("a", 1), gen("a", 2), y2), rels)
    raise ValueError(f"no small-genus presentation for ({g},{n})")


def nonorientable_mcg_presentation(g: int, n: int) -> Presentation:
    """Presentation of the mapping class group of the nonorientable
    surface of genus g with n boundary components (n in {0, 1})."""
    if n not in (0, 1):
        raise ValueError(f"only 0 or 1 boundary components, not {n}")
    if g < 1:
        raise ValueError(f"genus must be >= 1, not {g}")
    if g <= 2 or (g, n) == (3, 0):
        return _small_genus(g, n)
    gens = [gen("a", i) for i in range(1, g)]
    gens += [gen("u", i) for i in range(1, g)]
    gens += [gen("b", j) for j in range(0, (g - 2) // 2 + 1)]
    rels = _twist_relators(g) + _braid_relators(g, n == 0) + _crosscap_relators(g)
    if n == 0:
        mid = concat(arun(2, g - 1), urun_down(g - 1, 2))
        rels.append(_rel("D", (), concat(a(1), mid, a(1)), mid))
    return Presentation(g, n, tuple(gens), tuple(rels))


def tietze_eliminate(pres: Presentation, victim: Gen) -> Presentation:
    """Remove a generator using the first relator in which it occurs
    exactly once."""
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
    img = concat(inverse(p), inverse(q))
    if w[pos] < 0:
        img = inverse(img)
    sub = {v: img}
    gens = tuple(gn for gn in pres.generators if gn != victim)
    rels = tuple(
        Relator(r.tag, r.params, substitute(r.lhs, sub), substitute(r.rhs, sub))
        for i, r in enumerate(pres.relators)
        if i != relator_index
    )
    return Presentation(pres.genus, pres.boundary, gens, rels)
