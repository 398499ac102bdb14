"""Verification driver: evaluates catalogue entries at their declared
tiers and reports one verdict per item.

Tiers 1 and 2 are one decision, T(lhs) == C o T(rhs), with C the
conjugation by w^k, w the boundary word and k the exponent the entry
states (Entry.twist; tier 1 is k = 0). Each side keeps its
words.Factored structure, so a shared factor's table is built once per
surface. Presentation relators are checked as tier-1 entries on the same
path. Tier 3 first applies the integral-homology gate and then decides
innerness in the one-relator quotient exactly (one_relator): Verified
with the conjugator, or Refuted naming the generator whose image fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import pi1_action
from .catalogue import Entry, catalogue
from .homology_action import is_identity_mod_boundary_class, z_matrix_of_table
from .one_relator import VERIFIED, find_inner_conjugator
from .presentations import expansion_env, nonorientable_mcg_presentation
from .words import lit


@lru_cache(maxsize=16)
def _env(g: int, n: int) -> dict:
    """expansion_env(g, n), built once per surface so that pi1_action
    reuses its letter tables across verdicts; nothing here mutates it."""
    return expansion_env(g, n)


@dataclass(frozen=True)
class Verdict:
    genus: int
    boundary: int
    label: str
    tier: int
    ok: bool
    detail: str


def verify_entry(e: Entry) -> Verdict:
    g = e.genus
    ev = pi1_action.evaluator(g, _env(g, e.boundary))

    if e.tier in (1, 2):
        k = e.twist
        ok = ev.evaluate(e.lhs) == pi1_action.boundary_conjugate(ev.evaluate(e.rhs), g, k)
        if not k:
            detail = "sides have equal tables" if ok else "sides differ in the punctured representation"
        else:
            detail = f"lhs = rhs*w^{k}" if ok else f"lhs != rhs*w^{k} for the stated twist k = {k}"
        return Verdict(g, e.boundary, e.label(), e.tier, ok, detail)

    if e.tier != 3:
        raise ValueError(f"entry {e.label()} has unverifiable tier {e.tier}")
    table = ev.evaluate(e.word)
    if not is_identity_mod_boundary_class(z_matrix_of_table(table, g)):
        return Verdict(
            g, e.boundary, e.label(), 3, False,
            "homology gate: action on H_1 is not of boundary-class type",
        )
    res = find_inner_conjugator(table, g)
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
    return [verify_entry(Entry(r.tag, r.params, g, 1, r.lhs, r.rhs, 1))
            for r in nonorientable_mcg_presentation(g, 1).relators]


def boundary_fixation(g: int) -> list:
    """Each generator of the one-boundary group fixes the boundary word."""
    pres = nonorientable_mcg_presentation(g, 1)
    env = _env(g, 1)
    out = []
    for gen_ in pres.generators:
        table = pi1_action.evaluate(lit(gen_), g, env)
        ok = pi1_action.fixes_boundary(table, g)
        detail = "fixes the boundary word" if ok else "moves the boundary word"
        out.append(Verdict(g, 1, gen_.label(), 1, ok, detail))
    return out
