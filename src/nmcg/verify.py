"""Verification driver: evaluates catalogue entries at their declared
tiers and reports one verdict per item.

Tiers 1 and 2 are one decision, T(lhs) == C o T(rhs), with C the
conjugation by w^k, w the boundary word and k the exponent the entry
states (Entry.twist; tier 1 is k = 0). Each side keeps its
words.Factored structure, so a shared factor's table is built once per
surface. An entry whose letters include a b_j and no u_i is decided in
the prefix basis q (pi1_action.Evaluator.q), where b_j tables are short,
and w is written in that basis; every other entry in basis x.
The relators of the one-boundary presentation are Entry records at
tier 1 and take the same path, and replay endpoints are entries at
their script's tier.
Tier 3 is one exact route: it decides innerness of the relator's
table in the one-relator quotient (one_relator.find_inner_conjugator),
Verified with the conjugator, or Refuted naming the generator whose
image fails. The relator's table is that of lhs when rhs is empty, so
a Factored power (B3, B4, B4b, E6 at (g,0)) is built by squaring; an
entry with both sides is folded letter by letter from its flat word.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pi1_action
from .catalogue import catalogue
from .one_relator import VERIFIED, find_inner_conjugator
from .presentations import Entry, nonorientable_mcg_presentation
from .words import gen_of, lit


@dataclass(frozen=True)
class Verdict:
    genus: int
    boundary: int
    label: str
    tier: int
    ok: bool
    detail: str


def _basis(ev, e: Entry):
    """The Evaluator that decides a tier-1 or tier-2 entry: ev's basis-q
    sibling when the entry's letters include a b_j and no u_i, else ev.
    A b_j table is short in basis q and long in basis x, while u_i moves
    q_k for every odd k > i, so entries with u letters are faster in x.
    Conjugation by sigma keeps table equality, so the verdict is the
    same in either basis."""
    fams = {gen_of(c).fam for c in {*map(abs, e.lhs), *map(abs, e.rhs)}}
    return ev.q if "b" in fams and "u" not in fams else ev


def verify_entry(e: Entry) -> Verdict:
    g = e.genus
    ev = pi1_action.evaluator(g)

    if e.tier in (1, 2):
        k = e.twist
        ev = _basis(ev, e)
        ok = ev.evaluate(e.lhs) == ev.boundary_conjugate(ev.evaluate(e.rhs), k)
        if not k:
            detail = "sides have equal tables" if ok else "sides differ in the punctured representation"
        else:
            detail = f"lhs = rhs*w^{k}" if ok else f"lhs != rhs*w^{k} for the stated twist k = {k}"
        return Verdict(g, e.boundary, e.label(), e.tier, ok, detail)

    if e.tier != 3:
        raise ValueError(f"entry {e.label()} has unverifiable tier {e.tier}")
    res = find_inner_conjugator(ev.evaluate(e.word if e.rhs else e.lhs), g)
    if res.status == VERIFIED:
        return Verdict(
            g, e.boundary, e.label(), 3, True,
            f"inner in the quotient, conjugator {list(res.conjugator)}",
        )
    return Verdict(
        g, e.boundary, e.label(), 3, False,
        f"{res.status}: not inner in the quotient, first fails at the image of x_{res.generator}",
    )


def verify_catalogue(g: int, n: int, tiers=None) -> list:
    out = []
    for e in catalogue(g, n):
        if tiers is not None and e.tier not in tiers:
            continue
        out.append(verify_entry(e))
    return out


def verify_relators(g: int) -> list:
    """Every defining relator of the one-boundary presentation holds as
    an exact identity of punctured-surface automorphisms (g >= 3)."""
    return [verify_entry(r) for r in nonorientable_mcg_presentation(g, 1).relators]


def boundary_fixation(g: int) -> list:
    """Each generator of the one-boundary group fixes the boundary word."""
    pres = nonorientable_mcg_presentation(g, 1)
    out = []
    for gen_ in pres.generators:
        table = pi1_action.evaluate(lit(gen_), g)
        ok = pi1_action.fixes_boundary(table, g)
        detail = "fixes the boundary word" if ok else "moves the boundary word"
        out.append(Verdict(g, 1, gen_.label(), 1, ok, detail))
    return out
