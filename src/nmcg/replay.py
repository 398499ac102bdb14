"""Step-by-step replay of recorded relation derivations.

A script is a JSON fixture holding a start word, an end word, and a
list of rewrite steps. The replayer first checks the script's shape
(_check_shape: every key it reads is there and of its exact type, and
each op and dir is one it knows), then its metadata, before any step:
its tier is 1 or 2, and a tier-2 script states its exponent w_power. It
then executes the steps on a raw (unreduced) letter sequence and checks
three things:

* each applied rewrite matches the current word letter-for-letter at
  the stated position, which lies inside the word;
* each rewrite is licensed by a relation of the group: the freely
  reduced word match * replace^-1 must be conjugate in the free group
  to a cyclic rotation of the relation's relator (or its inverse);
* the final sequence equals the declared end word exactly, and the
  endpoint equation holds in the free-group-automorphism
  representation at the script's declared tier: T(start) == T(end) at
  tier 1, and at tier 2 T(start) == C o T(end), C conjugation by the
  power w^k of the boundary word that the script states as w_power.
  verify.verify_entry decides it, as an entry at that tier.

Scripts may depend on other scripts ("uses"); a dependency is replayed
first and its conclusion, the Entry start = end freely reduced that its
endpoint check verified, kept on its report, becomes available as the
relation ("script:<name>", ()). One rule,
catalogue.citable, says what a script may cite, dependency or
relator or catalogue entry: a (g,0) script any relation of its genus,
since capping the boundary makes the twist trivial; a (g,1) script only
a relation of (g,1) whose tier is at most its own, since a tier-2
relation holds there only up to the boundary twist. A tier-2 script may
cite one: the twist is central, and the endpoint check pins the
exponent. The relation index holds every relation of the surface, and a
step is refused either because its relation is unknown or because the
script's tier may not cite it; the message says which.

A memo passed between scripts (replay_all and `nmcg replay` pass one)
holds each replayed script's report under its name and each relation
index under its (g, n), so a run reads each script once, builds each
index once, and every script extends a copy of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .words import Word, parse_raw, fmt, free_reduce, inverse, cyclic_canon, letters
from .catalogue import Entry, citable, relation_index
from .verify import verify_entry

SCRIPT_DIR = Path(__file__).parent / "fixtures" / "scripts"


class StepMismatch(Exception):
    def __init__(self, script: str, step: int, message: str):
        super().__init__(f"script {script!r} step {step}: {message}")


@dataclass(frozen=True)
class ReplayReport:
    name: str
    genus: int
    boundary: int
    steps: int
    tier: int
    w_power: int  # the stated boundary-twist exponent at tier 2, else 0
    conclusion: Entry  # start = end freely reduced, checked at the endpoint; a dependent cites it


def _licensed(match: Word, replace: Word, relator: Word) -> bool:
    """match -> replace is a consequence of the single relation whose
    freely reduced relator lhs * rhs^-1 is relator (the cited Entry's
    word): freely trivial, or a cyclic rotation of the relator or its
    inverse. match and replace are script text, which may be unreduced,
    so their quotient is reduced here."""
    s = cyclic_canon(free_reduce(match + inverse(replace)))
    return not s or s == cyclic_canon(relator)


def load_script(name: str) -> dict:
    path = SCRIPT_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def available_scripts() -> list:
    return sorted(p.stem for p in SCRIPT_DIR.glob("*.json"))


_STEP_KEYS = {"cancel": (), "insert": ("at", "aux"), "apply": ("at", "rel")}
# the exact type of each key the replayer reads, and of the items of a list
_SCRIPT_TYPES = {"genus": int, "boundary": int, "tier": int, "start": str, "end": str,
                 "steps": list, "uses": list, "w_power": int}
_STEP_TYPES = {"op": str, "at": int, "rel": str, "params": list, "dir": str,
               "match": str, "replace": str, "aux": str}
_ITEM_TYPES = {"uses": str, "params": int}


def _check_shape(name: str, data: dict) -> None:
    """Refuse a script that lacks a key the replayer reads, gives a key
    or a list item other than its exact type (so a bool is no int), or
    whose step has an unknown op or dir, naming the step (-1 for the
    script) and the key; a step that is not a dict is named as its step.
    An apply step states either dir or both match and replace."""

    def need(i, obj, *keys):
        for key in keys:
            if key not in obj:
                raise StepMismatch(name, i, f"missing key {key!r}")

    def typed(i, what, v, t):
        if type(v) is not t:
            raise StepMismatch(name, i, f"{what} is {type(v).__name__}, not {t.__name__}")

    def typed_keys(i, obj, types):
        for key, t in types.items():
            if key in obj:
                typed(i, f"key {key!r}", obj[key], t)
                if key in _ITEM_TYPES:
                    for item in obj[key]:
                        typed(i, f"an item of {key!r}", item, _ITEM_TYPES[key])

    need(-1, data, "genus", "boundary", "tier", "start", "end", "steps")
    typed_keys(-1, data, _SCRIPT_TYPES)
    for i, step in enumerate(data["steps"]):
        typed(i, "an item of 'steps'", step, dict)
        need(i, step, "op")
        typed_keys(i, step, _STEP_TYPES)
        if step["op"] not in _STEP_KEYS:
            raise StepMismatch(name, i, f"unknown op {step['op']!r}")
        need(i, step, *_STEP_KEYS[step["op"]])
        if step["op"] != "apply":
            continue
        if "dir" not in step:
            need(i, step, "match", "replace")
        elif step["dir"] not in ("LtoR", "RtoL"):
            raise StepMismatch(name, i, f"key 'dir' is {step['dir']!r}, not 'LtoR' or 'RtoL'")


def _apply_step(name, i, word, step, index, scope):
    """The word after step i, a step of a shape _check_shape accepts;
    index maps (tag, params) to the records the script may name, and
    scope is its (genus, boundary, tier)."""
    op = step["op"]
    if op == "cancel":
        return list(free_reduce(tuple(word)))
    if op == "insert":  # a rewrite of the empty subword at `at`
        aux = parse_raw(step["aux"])
        match, replace = (), aux + inverse(aux)
    else:
        key = (step["rel"], tuple(step.get("params", ())))
        rec = index.get(key)
        if rec is None:
            raise StepMismatch(name, i, f"unknown relation {key}")
        if not citable(rec, *scope):
            raise StepMismatch(
                name, i,
                f"relation {rec.label()} is tier {rec.tier} at ({rec.genus},{rec.boundary});"
                f" a tier-{scope[2]} script at ({scope[0]},{scope[1]}) may not cite it",
            )
        if "dir" in step:
            sides = (rec.lhs, rec.rhs) if step["dir"] == "LtoR" else (rec.rhs, rec.lhs)
            match, replace = map(letters, sides)
        else:
            match, replace = parse_raw(step["match"]), parse_raw(step["replace"])
            if not _licensed(match, replace, rec.word):
                raise StepMismatch(
                    name, i,
                    f"rewrite {fmt(match)} -> {fmt(replace)} is not a"
                    f" consequence of {key}",
                )
    at = step["at"]
    if not 0 <= at <= len(word) - len(match):
        raise StepMismatch(name, i, f"{op} position {at} out of range")
    got = tuple(word[at : at + len(match)])
    if got != match:
        raise StepMismatch(
            name, i,
            f"at position {at} expected {fmt(match)}, found {fmt(got)}",
        )
    return word[:at] + list(replace) + word[at + len(match):]


def replay_script(name: str, _memo=None, _stack=None) -> ReplayReport:
    memo = {} if _memo is None else _memo
    stack = set() if _stack is None else _stack
    if name in memo:
        return memo[name]
    if name in stack:
        raise StepMismatch(name, -1, "dependency cycle")
    stack.add(name)
    data = load_script(name)
    _check_shape(name, data)
    g, n, tier = data["genus"], data["boundary"], data["tier"]
    if tier not in (1, 2):
        raise StepMismatch(name, -1, f"unsupported tier {tier}")
    if tier == 2 and "w_power" not in data:
        raise StepMismatch(name, -1, "a tier-2 script must state its exponent w_power")
    k = data["w_power"] if tier == 2 else 0
    if (g, n) not in memo:
        memo[g, n] = relation_index(g, n)
    index = dict(memo[g, n])
    for dep in data.get("uses", ()):
        rec = replay_script(dep, memo, stack).conclusion
        if not citable(rec, g, n, tier):
            raise StepMismatch(
                name, -1,
                f"dependency {dep!r} at ({rec.genus},{rec.boundary}) tier {rec.tier}"
                f" is no relation of ({g},{n})",
            )
        index[(rec.tag, rec.params)] = rec
    start = parse_raw(data["start"])
    word = list(start)
    for i, step in enumerate(data["steps"]):
        word = _apply_step(name, i, word, step, index, (g, n, tier))
    last = len(data["steps"])
    end = parse_raw(data["end"])
    if tuple(word) != end:
        raise StepMismatch(
            name, last,
            f"final word {fmt(tuple(word))} != declared end {fmt(end)}",
        )
    conclusion = Entry(f"script:{name}", (), g, n, free_reduce(start), free_reduce(end), tier, k)
    if not verify_entry(conclusion).ok:
        up_to = f" up to w^{k}" if tier == 2 else ""
        raise StepMismatch(name, last, f"endpoint fails tier-{tier} table equality{up_to}")
    report = ReplayReport(name, g, n, last, tier, k, conclusion)
    memo[name] = report
    stack.discard(name)
    return report


def replay_all() -> list:
    memo = {}
    return [replay_script(name, memo) for name in available_scripts()]
