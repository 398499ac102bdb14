"""Verification driver: evaluates catalogue entries at their declared
tiers and reports one verdict per item.

tier 1 runs exact table comparison in the punctured representation,
tier 2 searches for a boundary-twist exponent k with |k| <= KMAX, and
tier 3 first applies the integral-homology gate and then decides
innerness in the one-relator quotient by Dehn's algorithm. Pinned
fixture values (known conjugators, known twist exponents) act as
regression baselines: a hint speeds the search up but a wrong or stale
pin can only fail a verdict, never fake one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import pi1_action
from .catalogue import KMAX, Entry, catalogue
from .homology_action import is_identity_mod_boundary_class, z_matrix_of_table
from .one_relator import VERIFIED, find_inner_conjugator
from .presentations import expansion_env, nonorientable_mcg_presentation
from .words import lit

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@lru_cache(maxsize=None)
def _fixture(name: str) -> str:
    with open(FIXTURE_DIR / name, encoding="utf-8") as fh:
        return fh.read()


def pinned_conjugators() -> dict:
    return {k: tuple(v) for k, v in json.loads(_fixture("conjugators.json")).items()}


def pinned_exponents() -> dict:
    return dict(json.loads(_fixture("tier2_exponents.json")))


def pinned_h1_closed() -> dict:
    raw = json.loads(_fixture("h1_closed.json"))
    return {int(k): (v["free_rank"], tuple(v["torsion"])) for k, v in raw.items()}


@lru_cache(maxsize=16)
def _env(g: int, n: int) -> dict:
    """expansion_env(g, n), built once per surface so that pi1_action
    reuses its letter tables across verdicts; nothing here mutates it."""
    return expansion_env(g, n)


def fixture_key(e: Entry) -> str:
    return f"{e.genus}:{e.label()}"


@dataclass(frozen=True)
class Verdict:
    genus: int
    boundary: int
    label: str
    tier: int
    ok: bool
    detail: str


def verify_entry(e: Entry, radius=None, hints=None) -> Verdict:
    """hints: None to use the pinned fixture conjugators, {} to search
    from scratch, or an explicit mapping fixture_key -> conjugator."""
    g = e.genus
    env = _env(g, e.boundary)
    table = pi1_action.evaluate(e.word, g, env)

    if e.tier == 1:
        ok = table == pi1_action.identity_table(g)
        detail = "identity table" if ok else "sides differ in the punctured representation"
        return Verdict(g, e.boundary, e.label(), 1, ok, detail)

    if e.tier == 2:
        k = pi1_action.conjugation_exponent(table, g, KMAX)
        if k is None:
            return Verdict(
                g, e.boundary, e.label(), 2, False,
                f"not conjugation by w^k for any |k| <= {KMAX}",
            )
        pin = pinned_exponents().get(fixture_key(e), k)
        if pin != k:
            return Verdict(
                g, e.boundary, e.label(), 2, False,
                f"twist exponent {k} != pinned {pin}",
            )
        return Verdict(g, e.boundary, e.label(), 2, True, f"conjugation by w^{k}")

    assert e.tier == 3, f"entry {e.label()} has unverifiable tier {e.tier}"
    if not is_identity_mod_boundary_class(z_matrix_of_table(table, g)):
        return Verdict(
            g, e.boundary, e.label(), 3, False,
            "homology gate: action on H_1 is not of boundary-class type",
        )
    hint_map = pinned_conjugators() if hints is None else hints
    hint = hint_map.get(fixture_key(e))
    res = find_inner_conjugator(table, g, radius=radius, hint=hint)
    if res.status != VERIFIED and hint is not None:
        res = find_inner_conjugator(table, g, radius=radius)
    if res.status == VERIFIED:
        return Verdict(
            g, e.boundary, e.label(), 3, True,
            f"inner in the quotient, conjugator {list(res.conjugator)}",
        )
    return Verdict(g, e.boundary, e.label(), 3, False, f"Dehn search: {res.status}")


def verify_catalogue(g: int, n: int, tiers=None, radius=None, hints=None) -> list:
    out = []
    for e in catalogue(g, n):
        if tiers is not None and e.tier not in tiers:
            continue
        out.append(verify_entry(e, radius=radius, hints=hints))
    return out


def verify_relators(g: int) -> list:
    """Every defining relator of the one-boundary presentation holds as
    an exact identity of punctured-surface automorphisms (g >= 3)."""
    pres = nonorientable_mcg_presentation(g, 1)
    env = _env(g, 1)
    ident = pi1_action.identity_table(g)
    out = []
    for r in pres.relators:
        table = pi1_action.evaluate(r.word, g, env)
        ok = table == ident
        label = r.text().split(":")[0]
        detail = "identity table" if ok else "relator acts nontrivially"
        out.append(Verdict(g, 1, label, 1, ok, detail))
    return out


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
