"""Verification driver: verify(g, n) yields every verdict `nmcg verify`
prints at (g, n), one per record decided at its declared tier. At (g,1)
these are the relators of the one-boundary presentation (Entry records
at tier 1), one boundary-fixation verdict per generator, and the
catalogue; at (g,0), the catalogue alone (verify says why).

Tiers 1 and 2 are one decision, T(lhs) == C o T(rhs), with C the
conjugation by w^k, w the boundary word and k the exponent the entry
states (Entry.twist; tier 1 is k = 0). Each side keeps its
words.Factored structure, so a shared factor's table is built once per
surface. An entry whose letters include a b_j and no u_i is decided in
the prefix basis q (pi1_action.Evaluator.q), where b_j tables are short,
and w is written in that basis; every other entry in basis x.
Replay endpoints, entries at their script's tier, take this path too.
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
from .presentations import Entry, Presentation, nonorientable_mcg_presentation
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
    elif e.tier == 3:
        res = find_inner_conjugator(ev.evaluate(e.word if e.rhs else e.lhs), g)
        ok = res.status == VERIFIED
        if ok:
            detail = f"inner in the quotient, conjugator {list(res.conjugator)}"
        else:
            detail = (f"{res.status}: not inner in the quotient, "
                      f"first fails at the image of x_{res.generator}")
    else:
        raise ValueError(f"entry {e.label()} has unverifiable tier {e.tier}")
    return Verdict(g, e.boundary, e.label(), e.tier, ok, detail)


def boundary_fixation(pres: Presentation):
    """One verdict per generator of the one-boundary presentation pres:
    it fixes the boundary word."""
    g = pres.genus
    for gen_ in pres.generators:
        table = pi1_action.evaluate(lit(gen_), g)
        ok = pi1_action.fixes_boundary(table, g)
        detail = "fixes the boundary word" if ok else "moves the boundary word"
        yield Verdict(g, pres.boundary, gen_.label(), 1, ok, detail)


def verify(g: int, n: int, tiers=None):
    """Yield the verdicts on M(N_{g,n}) in the order `nmcg verify` prints
    them, of the records whose tier is in tiers (all when None; boundary
    fixation is tier 1). (g,0) needs no relator loop: each tier-1 relator
    of the closed presentation is a relator of (g,1), decided there, and
    its tier-3 relators B3, B4 and D are entries of the closed catalogue."""
    keep = lambda tier: tiers is None or tier in tiers
    if n == 1:
        pres = nonorientable_mcg_presentation(g, 1)
        yield from (verify_entry(r) for r in pres.relators if keep(r.tier))
        if keep(1):
            yield from boundary_fixation(pres)
    yield from (verify_entry(e) for e in catalogue(g, n) if keep(e.tier))
