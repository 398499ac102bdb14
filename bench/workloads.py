"""The four benchmark workloads: set-up, items and expected answers.

An item is one verdict-producing call into nmcg. Each workload has a
``setup`` step, timed as ``setup_s``, that builds the program-side
objects (presentations, expansion envs, catalogues), and an ``items``
step that turns them into benchmark-side inputs. Only ``items`` reads
the seed, and only the ``homology`` random words and the ``closed``
mutant positions depend on it.

Every expected answer below is written by hand from the mathematics and
is never read back from nmcg. Inputs are passed to nmcg as text through
``words.parse_raw`` or as objects nmcg built itself, and only default
public signatures are called (no hints, radius, use_da or use_b4a).
"""

from __future__ import annotations

import importlib
import random
import re
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

LAYERS = (
    "words", "presentations", "catalogue", "pi1_action", "homology_action",
    "one_relator", "abelianized", "cosets", "replay", "verify",
)

OK, UNDECIDED, WRONG = "ok", "undecided", "wrong"


def import_nmcg() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"nmcg.{m}") for m in LAYERS})


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[], object]  # the timed call into nmcg
    judge: Callable[[object], str]  # OK, UNDECIDED or WRONG


def _expect_verdict(expected_ok: bool):
    def judge(v):
        if "inconclusive" in str(v.detail).lower():
            return UNDECIDED
        return OK if bool(v.ok) == expected_ok else WRONG
    return judge


def _expect(value):
    return lambda got: OK if got == value else WRONG


# Item calls look nmcg functions up when they run, so that a traced run
# reaches the wrapped functions with items built before tracing started.
def _verify(nm, entry):
    return nm.verify.verify_entry(entry)


# ---- hand-written answers --------------------------------------------------

# H_1 of the mapping class group as (free rank, torsion invariants).
# Closed surfaces: Korkmaz, "First homology group of mapping class groups
# of nonorientable surfaces", Math. Proc. Camb. Phil. Soc. 123 (1998):
# Z/2^2 at g = 2, Z/2^3 at g = 4, Z/2^2 at g = 5, 6 and the stable Z/2
# from g = 7 on. One boundary component leaves these groups unchanged
# (Stukow, "Generating mapping class groups of nonorientable surfaces with
# boundary", Adv. Geom. 10 (2010)).
def expected_h1(g: int) -> tuple:
    if g == 2:
        return (0, (2, 2))
    if g == 4:
        return (0, (2, 2, 2))
    if g in (5, 6):
        return (0, (2, 2))
    if g >= 7:
        return (0, (2,))
    raise ValueError(f"no hand-written H_1 for genus {g}")


# Orders of the finite groups enumerated by cosets: N_1 with and without
# boundary is trivial, Mod(N_2) is Z/2 x Z/2, and the spherical 3-strand
# braid quotient is the symmetric group S_3.
COSET_ORDERS = {"(1,0)": 1, "(1,1)": 1, "(2,0)": 4, "spherical braid 3": 6}

# The rewrite scripts shipped with the package.
REPLAY_SCRIPTS = 16


def _punctured_expected(e) -> bool:
    """Every (g,1) catalogue verdict is Verified except tier-2 B4: the
    boundary of the first g-1 crosscaps is not a power of the ambient
    boundary word, so no |k| <= KMAX exists (the criterion 3 result)."""
    return not (e.tier == 2 and e.tag == "B4")


# ---- punctured: the full `verify -g G -n 1` job ----------------------------

PUNCTURED_GENERA = (8, 12, 16, 20)


def setup_punctured(nm):
    out = []
    for g in PUNCTURED_GENERA:
        pres = nm.presentations.nonorientable_mcg_presentation(g, 1)
        env = nm.presentations.expansion_env(g, 1)
        out.append((g, pres, env, nm.catalogue.catalogue(g, 1)))
    return out


def _fixes_boundary(nm, g, env, label):
    table = nm.pi1_action.evaluate(nm.words.parse_raw(label), g, env)
    return nm.pi1_action.fixes_boundary(table, g)


def items_punctured(nm, built, seed):
    items = []
    for g, pres, env, entries in built:
        # one item per relator and per generator, as `verify` reports them;
        # a relator is checked as the tier-1 entry relator = 1
        for r in pres.relators:
            e = nm.catalogue.Entry(r.tag, r.params, g, 1, r.lhs, r.rhs, 1)
            items.append(Item(f"({g},1) relator {r.text().split(':')[0]}",
                              partial(_verify, nm, e), _expect_verdict(True)))
        for label in pres.generator_labels():
            items.append(Item(f"({g},1) {label} fixes the boundary word",
                              partial(_fixes_boundary, nm, g, env, label), _expect(True)))
        for e in entries:
            items.append(Item(f"({g},1) tier {e.tier} {e.label()}",
                              partial(_verify, nm, e),
                              _expect_verdict(_punctured_expected(e))))
    return items


# ---- closed: accept path and refute path of tier 3 --------------------------

CLOSED_GENERA = (4, 5, 6, 7, 12, 24)
MUTANT_GENERA = (4, 5, 6)
MUTANT_FAMILIES = ("a", "u", "b")
_FAMILY_LETTER = re.compile(r"^([aub])\d+$")


def setup_closed(nm):
    return [(g, nm.catalogue.catalogue(g, 0)) for g in CLOSED_GENERA]


def mutate(text: str, family: str, rng: random.Random):
    """Invert one letter of the given family at a seeded position, or
    return None when the word has no such letter.

    Letters a_i, u_i and b_j have infinite order, so the mutant differs
    from the true relation by a conjugate of x^(+-2) != 1 and must be
    rejected. Named letters are never touched: r_g is an involution in
    the closed group (E2a), so inverting it would keep a true relation.
    """
    tokens = text.split("*")
    spots = [i for i, t in enumerate(tokens)
             if (m := _FAMILY_LETTER.match(t.removesuffix("^-1"))) and m.group(1) == family]
    if not spots:
        return None
    i = rng.choice(spots)
    t = tokens[i]
    tokens[i] = t.removesuffix("^-1") if t.endswith("^-1") else t + "^-1"
    return "*".join(tokens)


def items_closed(nm, built, seed):
    """Each genus's entries, then (at g = 4..6) one mutant per tier-3 entry.

    Mutated families are taken in turn (a, u, b, a, ...), skipping those
    an entry lacks, so every seed gets the same mix of families and only
    the positions move. Inverting a u letter keeps the homology gate
    passing, so those mutants reach the quotient decision.
    """
    rng = random.Random(f"closed:{seed}")
    empty = nm.words.parse_raw("1")
    turn = 0
    items = []
    for g, entries in built:
        for e in entries:
            items.append(Item(f"({g},0) tier {e.tier} {e.label()}",
                              partial(_verify, nm, e), _expect_verdict(True)))
        if g not in MUTANT_GENERA:
            continue
        for e in entries:
            if e.tier != 3:
                continue
            text = nm.words.fmt(e.word)
            for k in range(len(MUTANT_FAMILIES)):
                family = MUTANT_FAMILIES[(turn + k) % len(MUTANT_FAMILIES)]
                mutant = mutate(text, family, rng)
                if mutant is not None:
                    break
            turn = MUTANT_FAMILIES.index(family) + 1
            m = nm.catalogue.Entry(e.tag, e.params, g, 0, nm.words.parse_raw(mutant), empty, 3)
            items.append(Item(f"({g},0) mutant {e.label()} [{mutant}]",
                              partial(_verify, nm, m), _expect_verdict(False)))
    return items


# ---- homology: criterion 5 in shape -----------------------------------------

HOMOLOGY_GENERA = range(3, 9)
WORDS_PER_GENUS = 1000
MAX_WORD_LEN = 12


def setup_homology(nm):
    built = []
    for g in HOMOLOGY_GENERA:
        for n in (1, 0):
            if n == 0 and g < 4:
                continue
            pres = nm.presentations.nonorientable_mcg_presentation(g, n)
            built.append((g, n, pres, nm.presentations.expansion_env(g, n)))
    return built


def _f2_trivial(nm, word, g, env):
    return nm.homology_action.f2_matrix(word, g, env) == nm.homology_action.f2_identity(g)


def _z_trivial(nm, word, g, env):
    return nm.homology_action.is_identity_mod_boundary_class(
        nm.homology_action.z_matrix(word, g, env))


def _keeps_mod2_form(nm, word, g, env):
    return nm.homology_action.preserves_mod2_form(nm.homology_action.f2_matrix(word, g, env))


def _routes_agree(nm, word, g, env):
    ha = nm.homology_action
    return ha.f2_matrix(word, g, env) == ha.z_mod2(ha.z_matrix(word, g, env))


def items_homology(nm, built, seed):
    """Relators act trivially on H_1 by both routes, generators keep the
    mod-2 intersection form, and the two routes agree on random words."""
    items = []
    for g, n, pres, env in built:
        for r in pres.relators:
            head = f"({g},{n}) relator {r.text().split(':')[0]}"
            items.append(Item(head + " F2", partial(_f2_trivial, nm, r.word, g, env), _expect(True)))
            items.append(Item(head + " Z", partial(_z_trivial, nm, r.word, g, env), _expect(True)))
    for g, n, pres, env in built:
        if n != 1:
            continue
        labels = pres.generator_labels()
        for label in labels:
            items.append(Item(f"({g},1) {label} keeps the mod-2 form",
                              partial(_keeps_mod2_form, nm, nm.words.parse_raw(label), g, env),
                              _expect(True)))
        # Every seed gets the same word lengths (1..MAX_WORD_LEN in turn)
        # and the same count of each generator; the seed shuffles the
        # letters into words and picks the exponents. Cost follows length
        # and letter mix, so this keeps seeds comparable.
        rng = random.Random(f"homology:{seed}:{g}")
        lengths = [1 + i % MAX_WORD_LEN for i in range(WORDS_PER_GENUS)]
        letters = [labels[i % len(labels)] for i in range(sum(lengths))]
        rng.shuffle(letters)
        starts = [sum(lengths[:i]) for i in range(len(lengths))]
        for start, length in zip(starts, lengths):
            text = " ".join(label + rng.choice(("", "^-1"))
                            for label in letters[start:start + length])
            items.append(Item(f"({g},1) routes agree on {text}",
                              partial(_routes_agree, nm, nm.words.parse_raw(text), g, env),
                              _expect(True)))
    return items


# ---- algebra: the modules the verifier barely touches -----------------------

H1_GENERA = range(4, 25)
TIETZE = ((6, ("b2", "b0")), (8, ("b3", "b2", "b0")))


def setup_algebra(nm):
    mcg = nm.presentations.nonorientable_mcg_presentation
    return {
        "h1": [((g, n), mcg(g, n)) for g in H1_GENERA for n in (0, 1)] + [((2, 0), mcg(2, 0))],
        "cosets": [("(1,0)", mcg(1, 0)), ("(1,1)", mcg(1, 1)), ("(2,0)", mcg(2, 0)),
                   ("spherical braid 3", nm.presentations.braid_presentation(3, spherical=True))],
    }


def _h1(nm, pres):
    res = nm.abelianized.h1(pres)
    return (res.free_rank, tuple(res.torsion))


def _tietze_h1s(nm, pres, victims):
    out = [_h1(nm, pres)]
    for v in victims:
        pres = nm.presentations.tietze_eliminate(pres, nm.words.gen(v[0], int(v[1:])))
        out.append(_h1(nm, pres))
    return out


def _order(nm, pres):
    return nm.cosets.group_order(pres)


def _replay_ok(reports):
    names = [r.name for r in reports]
    holds = (len(reports) == REPLAY_SCRIPTS and len(set(names)) == len(names)
             and all(r.steps > 0 and r.tier in (1, 2) for r in reports))
    return OK if holds else WRONG


def items_algebra(nm, built, seed):
    items = []
    for (g, n), pres in built["h1"]:
        items.append(Item(f"H_1 at ({g},{n})", partial(_h1, nm, pres), _expect(expected_h1(g))))
    pres_by_gn = dict(built["h1"])
    for g, victims in TIETZE:
        items.append(Item(f"H_1 at ({g},1) under elimination of {', '.join(victims)}",
                          partial(_tietze_h1s, nm, pres_by_gn[(g, 1)], victims),
                          _expect([expected_h1(g)] * (len(victims) + 1))))
    for name, pres in built["cosets"]:
        items.append(Item(f"order of {name}", partial(_order, nm, pres),
                          _expect(COSET_ORDERS[name])))
    items.append(Item("replay_all", lambda: nm.replay.replay_all(), _replay_ok))
    return items


WORKLOADS = {
    "punctured": (setup_punctured, items_punctured),
    "closed": (setup_closed, items_closed),
    "homology": (setup_homology, items_homology),
    "algebra": (setup_algebra, items_algebra),
}
