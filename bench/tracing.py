"""Per-layer spans for the traced run, recorded from outside the package.

Every public function and public method that an nmcg module defines is
replaced, in every nmcg module namespace and on its class, by a wrapper.
A call that enters a layer from another layer (or from the benchmark)
opens a span; a call inside the same layer only bumps counters, which
keeps the cost of hot inner calls low. A layer's self time is the time
its spans are open minus the time their child spans cover.

The signed-int word helpers of ``pi1_action`` (``xreduce`` and friends)
are not layer entry points: ``one_relator`` and ``pi1_action`` both use
them as their word kernel, so their time is charged to the caller.

Counters that need a particular function are listed in ``HOOKS``. A
listed function that no longer exists is reported as absent and its
counters read zero, so the traced run survives later deletions.
"""

from __future__ import annotations

import inspect
from collections import Counter
from functools import wraps
from time import perf_counter

KERNEL_HELPERS = {"pi1_action": {"xreduce", "xinv", "xmul", "xpow", "xsub"}}
F2_ROUTE = ("f2_", "preserves_mod2_form")
Z_ROUTE = ("z_", "is_identity_mod_boundary_class")


# ---- counters taken at named functions --------------------------------------
# hook(tracer, args, result, entering) runs after the call returns.


def _evaluate(word_arg):
    def hook(t, args, result, entering):
        if entering:  # a word another layer asked pi1_action to evaluate
            t.counts["pi1_action.letters"] += len(args[word_arg])
            t.counts["pi1_action.table_len"] += sum(len(im) for im in result)
    return hook


def _letter_table(t, args, result, entering):
    if entering:
        t.counts["pi1_action.letters"] += 1


def _gate(t, args, result, entering):
    t.counts["homology_action.gate_rejects"] += not result


def _dehn(t, args, result, entering):
    t.counts["one_relator.dehn_letters"] += len(args[0])


def _search(t, args, result, entering):
    t.counts["one_relator.decided"] += result.status != "Inconclusive"


def _smith(t, args, result, entering):
    t.counts["abelianized.matrix_cells"] += len(args[0]) * args[1]


def _entered_len(counter, attr=None):
    def hook(t, args, result, entering):
        if entering:
            t.counts[counter] += len(getattr(result, attr) if attr else result)
    return hook


def _replay_steps(t, args, result, entering):
    if entering:
        reports = result if isinstance(result, list) else [result]
        t.counts["replay.steps"] += sum(r.steps for r in reports)


_PRES = _entered_len("presentations.relators", "relators")
_ENTRIES = _entered_len("catalogue.entries")

HOOKS = {
    "pi1_action:evaluate": _evaluate(0),
    "pi1_action:Evaluator.__init__": None,
    "pi1_action:Evaluator.evaluate": _evaluate(1),
    "pi1_action:Evaluator.letter_table": _letter_table,
    "pi1_action:compose": None,
    "homology_action:is_identity_mod_boundary_class": _gate,
    "one_relator:dehn_reduce": _dehn,
    "one_relator:find_inner_conjugator": _search,
    "abelianized:smith_diagonal": _smith,
    "cosets:_Enumerator.define": None,
    "replay:replay_all": _replay_steps,
    "replay:replay_script": _replay_steps,
    "presentations:nonorientable_mcg_presentation": _PRES,
    "presentations:braid_presentation": _PRES,
    "presentations:slide_presentation": _PRES,
    "presentations:tietze_eliminate": _PRES,
    "catalogue:catalogue": _ENTRIES,
    "catalogue:punctured_entries": _ENTRIES,
    "catalogue:closed_entries": _ENTRIES,
    "verify:verify_entry": None,
}


def _entry_points(module, layer):
    """(qualname, owner, attribute name, function) for each wrapped callable:
    public functions and public methods of public classes, plus any
    private callable named in HOOKS."""
    skip = KERNEL_HELPERS.get(layer, set())
    for name, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            if (not name.startswith("_") and name not in skip) or f"{layer}:{name}" in HOOKS:
                yield name, module, name, obj
        elif inspect.isclass(obj):
            for mname, fn in list(vars(obj).items()):
                qual = f"{name}.{mname}"
                public = not name.startswith("_") and not mname.startswith("_")
                if inspect.isfunction(fn) and (public or f"{layer}:{qual}" in HOOKS):
                    yield qual, obj, mname, fn


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.stack = []  # open spans: [layer, seconds covered by child spans]
        self.self_s = Counter()
        self.calls = Counter()  # "layer:qualname" -> every call
        self.entries = Counter()  # "layer:qualname" -> calls entering the layer
        self.entry_s = Counter()  # "layer:qualname" -> time of entering spans
        self.nested_s = Counter()  # (parent layer, child layer) -> seconds
        self.counts = Counter()
        self.absent = []

    def install(self, nm):
        modules = [getattr(nm, layer) for layer in self.layers]
        found = set()
        for layer, module in zip(self.layers, modules):
            for qual, owner, attr, fn in list(_entry_points(module, layer)):
                key = f"{layer}:{qual}"
                found.add(key)
                wrapper = self._wrap(layer, key, fn, HOOKS.get(key))
                if owner is module:
                    for m in modules:  # rebind every imported reference too
                        for name, obj in list(vars(m).items()):
                            if obj is fn:
                                setattr(m, name, wrapper)
                else:
                    setattr(owner, attr, wrapper)
        self.absent = sorted(k for k in HOOKS if k not in found)

    def _wrap(self, layer, key, fn, hook):
        stack, calls, entries = self.stack, self.calls, self.entries
        self_s, entry_s, nested_s = self.self_s, self.entry_s, self.nested_s

        @wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result, False)
                return result
            entries[key] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                entry_s[key] += dt
                if stack:
                    stack[-1][1] += dt
                    nested_s[(stack[-1][0], layer)] += dt
            if hook is not None:
                hook(self, args, result, True)
            return result

        return span

    def _sum(self, table, layer, prefixes=("",)):
        return sum(v for k, v in table.items()
                   if k.startswith(layer + ":")
                   and k.split(":", 1)[1].startswith(prefixes))

    def metrics(self) -> dict:
        """Per-layer metrics by name, each as (value, unit)."""
        c = self.counts
        m = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in self.layers}
        evaluate_calls = (self.entries["pi1_action:evaluate"]
                          + self.entries["pi1_action:Evaluator.evaluate"])
        compose_calls = self.calls["pi1_action:compose"]
        gate_calls = self.calls["homology_action:is_identity_mod_boundary_class"]
        searches = self.calls["one_relator:find_inner_conjugator"]
        m.update({
            "pi1_action.evaluate_calls": (evaluate_calls, "count"),
            "pi1_action.compose_calls": (compose_calls, "count"),
            "pi1_action.table_len": (c["pi1_action.table_len"], "letters"),
            "pi1_action.evaluator_builds": (self.calls["pi1_action:Evaluator.__init__"], "count"),
            "pi1_action.compose_per_letter": (
                _ratio(compose_calls, c["pi1_action.letters"]), "ratio"),
            "homology_action.f2_s": (self._sum(self.entry_s, "homology_action", F2_ROUTE), "s"),
            "homology_action.z_s": (self._sum(self.entry_s, "homology_action", Z_ROUTE), "s"),
            "homology_action.pi1_evaluate_s": (
                self.nested_s[("homology_action", "pi1_action")], "s"),
            "homology_action.gate_reject_ratio": (
                _ratio(c["homology_action.gate_rejects"], gate_calls), "ratio"),
            "one_relator.dehn_calls": (self.calls["one_relator:dehn_reduce"], "count"),
            "one_relator.dehn_letters": (c["one_relator.dehn_letters"], "letters"),
            "one_relator.search_calls": (searches, "count"),
            "one_relator.decided_ratio": (_ratio(c["one_relator.decided"], searches), "ratio"),
            "abelianized.matrix_cells": (c["abelianized.matrix_cells"], "count"),
            "cosets.cosets": (self.calls["cosets:_Enumerator.define"], "count"),
            "replay.steps": (c["replay.steps"], "count"),
            "words.calls": (self._sum(self.calls, "words"), "count"),
            "presentations.relators": (c["presentations.relators"], "count"),
            "catalogue.entries": (c["catalogue.entries"], "count"),
            "verify.items": (self._sum(self.entries, "verify"), "count"),
        })
        return m


def _ratio(num, den):
    return num / den if den else 0.0
