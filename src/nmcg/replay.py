"""Step-by-step replay of recorded relation derivations.

A script is a JSON fixture holding a start word, an end word, and a
list of rewrite steps. The replayer executes the steps on a raw
(unreduced) letter sequence and checks three things:

* each applied rewrite matches the current word letter-for-letter at
  the stated position;
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
first and its conclusion becomes available as the relation
("script:<name>", ()).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .words import Word, parse_raw, fmt, free_reduce, inverse, concat, cyclic_canon
from .catalogue import Entry, relation_index
from .verify import verify_entry

SCRIPT_DIR = Path(__file__).parent / "fixtures" / "scripts"


class StepMismatch(Exception):
    def __init__(self, script: str, step: int, message: str):
        super().__init__(f"script {script!r} step {step}: {message}")
        self.script = script
        self.step = step


@dataclass(frozen=True)
class ReplayReport:
    name: str
    genus: int
    boundary: int
    steps: int
    tier: int
    w_power: int  # the stated boundary-twist exponent at tier 2, else 0


def _licensed(match: Word, replace: Word, lhs: Word, rhs: Word) -> bool:
    """match -> replace is a consequence of the single relation lhs = rhs:
    freely trivial, or a cyclic rotation of its relator or the inverse."""
    s = cyclic_canon(concat(match, inverse(replace)))
    return not s or s == cyclic_canon(concat(lhs, inverse(rhs)))


def load_script(name: str) -> dict:
    path = SCRIPT_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def available_scripts() -> list:
    return sorted(p.stem for p in SCRIPT_DIR.glob("*.json"))


def _apply_step(name, i, word, step, index):
    op = step["op"]
    if op == "cancel":
        return list(free_reduce(tuple(word)))
    if op == "insert":
        at = step["at"]
        aux = list(parse_raw(step["aux"]))
        if not 0 <= at <= len(word):
            raise StepMismatch(name, i, f"insert position {at} out of range")
        return word[:at] + aux + list(inverse(aux)) + word[at:]
    if op == "apply":
        key = (step["rel"], tuple(step.get("params", ())))
        if key not in index:
            raise StepMismatch(name, i, f"unknown relation {key}")
        lhs, rhs = index[key]
        if "dir" in step:
            match, replace = (lhs, rhs) if step["dir"] == "LtoR" else (rhs, lhs)
        else:
            match, replace = parse_raw(step["match"]), parse_raw(step["replace"])
            if not _licensed(match, replace, lhs, rhs):
                raise StepMismatch(
                    name, i,
                    f"rewrite {fmt(match)} -> {fmt(replace)} is not a"
                    f" consequence of {key}",
                )
        at = step["at"]
        got = tuple(word[at : at + len(match)])
        if got != match:
            raise StepMismatch(
                name, i,
                f"at position {at} expected {fmt(match)}, found {fmt(got)}",
            )
        return word[:at] + list(replace) + word[at + len(match):]
    raise StepMismatch(name, i, f"unknown op {op!r}")


def replay_script(name: str, _memo=None, _stack=None) -> ReplayReport:
    memo = {} if _memo is None else _memo
    stack = set() if _stack is None else _stack
    if name in memo:
        return memo[name]
    if name in stack:
        raise StepMismatch(name, -1, "dependency cycle")
    stack.add(name)
    data = load_script(name)
    g, n = data["genus"], data["boundary"]
    index = dict(relation_index(g, n))
    for dep in data.get("uses", ()):
        replay_script(dep, memo, stack)
        dd = load_script(dep)
        index[(f"script:{dep}", ())] = (parse_raw(dd["start"]), parse_raw(dd["end"]))
    word = list(parse_raw(data["start"]))
    for i, step in enumerate(data["steps"]):
        word = _apply_step(name, i, word, step, index)
    last = len(data["steps"])
    end = list(parse_raw(data["end"]))
    if word != end:
        raise StepMismatch(
            name, last,
            f"final word {fmt(tuple(word))} != declared end {fmt(tuple(end))}",
        )

    tier = data["tier"]
    if tier not in (1, 2):
        raise StepMismatch(name, last, f"unsupported tier {tier}")
    k = 0
    if tier == 2:
        if "w_power" not in data:
            raise StepMismatch(name, last, "a tier-2 script must state its exponent w_power")
        k = data["w_power"]
    if not verify_entry(Entry(name, (), g, n, parse_raw(data["start"]), tuple(end), tier, k)).ok:
        up_to = f" up to w^{k}" if tier == 2 else ""
        raise StepMismatch(name, last, f"endpoint fails tier-{tier} table equality{up_to}")
    report = ReplayReport(name, g, n, last, tier, k)
    memo[name] = report
    stack.discard(name)
    return report


def replay_all() -> list:
    memo = {}
    return [replay_script(name, memo) for name in available_scripts()]
