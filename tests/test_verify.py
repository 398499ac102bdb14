"""Verification driver: verdict mechanics, stated tier-2 exponents, and
the rejection of corrupted relations at every tier.

A tier-2 entry states its boundary-twist exponent, so a wrong stated
exponent fails the verdict and no exponent rescues a false relation."""

import dataclasses

import nmcg.verify as verify_mod
from nmcg.catalogue import Entry, catalogue
from nmcg.presentations import delta_word, nonorientable_mcg_presentation, urun
from nmcg.verify import Verdict, boundary_fixation, verify, verify_entry
from nmcg.words import Factored, cyclic_canon, gen_of, letter, letters, power


def _entry(g, n, label):
    for e in catalogue(g, n):
        if e.label() == label:
            return e
    raise AssertionError(f"no entry {label} at ({g},{n})")


def test_verify_relators_counts_match_presentation():
    # at (g,1) verify yields the relators, then one boundary-fixation
    # verdict per generator, then the catalogue, each in its built order
    for g in (3, 4):
        pres = nonorientable_mcg_presentation(g, 1)
        out = list(verify(g, 1))
        rels, gens = len(pres.relators), len(pres.generators)
        assert [v.label for v in out[:rels]] == [r.label() for r in pres.relators]
        assert [v.label for v in out[rels:rels + gens]] == pres.generator_labels()
        assert [v.label for v in out[rels + gens:]] == [e.label() for e in catalogue(g, 1)]
        assert all(isinstance(v, Verdict) and v.ok for v in out)


def _repeats(items):
    """The groups of labels among items (label, word, tier, twist) that
    share a label, or a relator word up to cyclic rotation and inversion
    at one tier and twist."""
    groups = {}
    for label, word, tier, twist in items:
        groups.setdefault(label, []).append(label)
        groups.setdefault((cyclic_canon(word), tier, twist), []).append(label)
    return sorted(labels for labels in groups.values() if len(labels) > 1)


def test_no_label_is_verified_twice_at_one_boundary():
    # each relation is stated once: a restated one is a second check of
    # the same word, under another label or the same one
    repeated = []
    for g, n in [(g, 1) for g in range(1, 17)] + [(g, 0) for g in range(4, 17)]:
        # the relators as verify checks them, at (g,1) only
        entries = list(nonorientable_mcg_presentation(g, 1).relators) if n else []
        items = [(e.label(), e.word, e.tier, e.twist) for e in entries + catalogue(g, n)]
        repeated += [f"({g},{n}) {labels}" for labels in _repeats(items)]
    assert not repeated, "verified twice:\n" + "\n".join(repeated)


def test_boundary_fixation_covers_all_generators():
    pres = nonorientable_mcg_presentation(5, 1)
    out = list(boundary_fixation(pres))
    assert [v.label for v in out] == pres.generator_labels()
    assert all(v.ok and v.tier == 1 for v in out)


def test_tier1_entry_verifies():
    v = verify_entry(_entry(4, 1, "star(2)"))
    assert v.ok and v.tier == 1 and v.genus == 4 and v.boundary == 1


def test_tier2_wrong_pin_fails_verdict():
    e = _entry(4, 1, "B7(4,closed)")
    good = verify_entry(e)
    assert good.ok and "w^1" in good.detail
    bad = verify_entry(dataclasses.replace(e, twist=3))
    assert not bad.ok, "a wrong stated exponent must fail the verdict"
    assert "w^3" in bad.detail


def test_tier2_honest_failure_is_not_rescued_by_pin():
    # B4 filed at tier 2 is false at (4,1): its twist curve surrounds
    # crosscaps 1..3, not the boundary. The catalogue files it at tier 3
    # of (4,0), so the tier-2 claim is built here; no stated exponent may
    # rescue it
    for k in range(-3, 4):
        e = Entry("B4", (), 4, 1, power(urun(1, 2), 3), (), 2, k)
        v = verify_entry(e)
        assert not v.ok and v.tier == 2, f"twist {k} rescued the B4 verdict"


def test_tier3_refutes_a_corrupted_word():
    e = _entry(4, 0, "D")
    corrupted = dataclasses.replace(e, lhs=e.lhs + (abs(e.lhs[0]),))
    v = verify_entry(corrupted)
    assert not v.ok, "corrupting a relator must fail some stage"
    assert v.detail.startswith("Refuted: "), v.detail


def test_tier1_and_tier2_verdicts_do_not_depend_on_the_basis(monkeypatch):
    # conjugation by sigma keeps table equality, so deciding every entry
    # in basis x, and every entry in basis q, gives the verdicts of the rule
    from nmcg.pi1_action import Evaluator, evaluator

    entries, routed = [], 0
    for g in range(4, 13):
        entries += [e for e in catalogue(g, 1) if e.tier in (1, 2)]
        entries += nonorientable_mcg_presentation(g, 1).relators
    rule = [verify_entry(e) for e in entries]
    for e in entries:
        ev = evaluator(e.genus)
        fams = {gen_of(c).fam for c in letters(e.lhs) + letters(e.rhs)}
        chosen = ev.deciding(e.lhs, e.rhs)
        assert chosen is (ev.q if "b" in fams and "u" not in fams else ev), e.label()
        routed += chosen is not ev
    # more than 250 before the H3-H6 entries that restate A3 and A4 were dropped
    assert routed >= 201, routed
    for pick in (lambda ev, lhs, rhs: ev, lambda ev, lhs, rhs: ev.q):
        monkeypatch.setattr(Evaluator, "deciding", pick)
        assert [verify_entry(e) for e in entries] == rule
    assert all(v.ok for v in rule)


def _cold_compose_count(monkeypatch, run):
    """pi1_action.compose, pi1_action.splice and letter-step calls made
    by run(); the caller starts from cold_evaluators, and run() must use
    genera that no earlier count warmed. compose is itself one _step, so
    the letter steps are the _step calls less the composes."""
    import nmcg.pi1_action as pa

    calls = {"compose": 0, "splice": 0, "_step": 0}
    for name in calls:
        monkeypatch.setattr(pa, name, _counting(calls, name, getattr(pa, name)))
    run()
    monkeypatch.undo()
    return calls["compose"], calls["splice"], calls["_step"] - calls["compose"]


def _counting(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def test_shared_factors_bound_the_compose_count(monkeypatch, cold_evaluators):
    # each shared factor (Delta_k and its square, u_1..u_m and its powers,
    # r_g) is built once per surface: a cold verify at (20,1) made 7902
    # composes when each entry rebuilt them. Keying the part cache on
    # letters took 4943 to 4751: plain parts are cached too, so
    # u_{k-1}..u_1, a part of both B6(k) and B8(k) (and of r_g at k = g),
    # is folded once per k. A leading one-letter part (Delta_2 = u_1
    # among them) is spliced into the product of the rest: one splice for
    # each side of B5, E1, E3 and E4 that a letter leads, and one for
    # Delta_2 and for each side of E1(2,1), took 4751 composes to 4332.
    # Dropping the k = 2 entries and B6(3), whose sides are one flat word
    # or restate star(1), took (4332, 418) to (4329, 415). Dropping the
    # entries that restate a relator or another entry took it to (4134, 413).
    # A fold step after a single letter, and a trailing one-letter part,
    # is now a letter step, which rewrites only the images that letter
    # moves: (composes, splices, letter steps) went from (4134, 413, 0) to
    # (275, 413, 3859), every compose after a letter table now a step.
    # boundary_conjugate conjugates each image instead of composing a
    # conjugation table, which took (275, 413, 3859) to (273, 413, 3859):
    # the two tier-2 entries at (20,1) with a nonzero twist. One record per
    # table, letter or part power, took (273, 413, 3859) to (203, 412, 3929):
    # each later part of a product is a letter step by its record, not a
    # compose, and Delta_2 = u_1 keys as u_1's letter record, so B8(3)
    # squares that table and the splice of u_1 into the identity is gone.
    # Every side p^k with k >= 3 (A5, A6, A8a's chain powers) is one
    # Factored part, whose table squares that of p: (203, 412, 3929) to
    # (230, 412, 3648), the squarings adding composes and removing the
    # letter steps that folded the flat powers
    def punctured():
        assert all(v.ok for v in verify(20, 1))

    counts = _cold_compose_count(monkeypatch, punctured)
    assert counts == (230, 412, 3648), counts
    # the long one-sided closed powers (B3, B4, B4b, E6) are built by
    # squaring the run's table: that took (2921, 0) to (919, 0). E2a and
    # E5 (exponent 2, where squaring a dense table costs more than
    # folding sparse letter tables) and the two-sided entries (composing
    # two dense side tables costs more) are folded letter by letter, so
    # letter steps took (919, 0, 0) to (24, 0, 895), unchanged since
    counts = _cold_compose_count(monkeypatch, lambda: list(verify(24, 0)))
    assert counts == (24, 0, 895), counts


def test_a_second_verify_splices_from_the_image_caches(monkeypatch, cold_evaluators):
    # each letter's record caches every image that splice rewrites, so a
    # second verify at (16,1) finds them all: it gives the same verdicts,
    # splices as often, and calls mul from inside splice not once. When
    # only the runs inside an image were cached, it made 528 such calls
    import sys

    import nmcg.pi1_action as pa

    first = list(verify(16, 1))
    calls = {"splice": 0, "mul": 0}
    code, mul = pa.splice.__code__, pa.mul

    def spy(*parts):
        calls["mul"] += sys._getframe(1).f_code is code
        return mul(*parts)

    monkeypatch.setattr(pa, "mul", spy)
    monkeypatch.setattr(pa, "splice", _counting(calls, "splice", pa.splice))
    assert list(verify(16, 1)) == first
    assert calls["splice"] > 100 and calls["mul"] == 0, calls


def test_verify_never_flattens_a_factored_side(monkeypatch, cold_evaluators):
    # a Factored side holds only its parts; its flat letters, O(k^2) for
    # Delta_k times a letter, are built only by words.letters, and only
    # to print or match. A verify at (16,1) from a cold Evaluator, whose
    # named words (r_g among them, by its letters) are built before the
    # patch, must decide every entry without them. The one flatten left
    # is a join: the presentation's plain A8 right side, a8_word(i),
    # takes the letters of the 30-letter chain_power(i). Only that call
    # site is exempt, so the catalogue's A8a(rho, cokernel) side, the
    # same chain_power(i), still raises if verify flattens it
    import importlib
    import pkgutil
    import sys

    import pytest

    import nmcg
    from nmcg.pi1_action import evaluator
    from nmcg.presentations import a8_word
    from nmcg.words import fmt

    names = [m.name for m in pkgutil.iter_modules(nmcg.__path__)]
    modules = [importlib.import_module(f"nmcg.{name}") for name in names]
    real = letters

    def plain_only(word):
        if isinstance(word, Factored) and sys._getframe(1).f_code is not a8_word.__code__:
            raise AssertionError("a Factored word was flattened")
        return real(word)

    evaluator(16)
    binders = [m for m in modules if getattr(m, "letters", None) is real]
    assert {m.__name__ for m in binders} >= {"nmcg.words", "nmcg.presentations",
                                              "nmcg.catalogue", "nmcg.replay"}
    for m in binders:
        monkeypatch.setattr(m, "letters", plain_only)
    for read in (fmt, len, bool):
        with pytest.raises(AssertionError, match="flattened"):
            read(delta_word(5))
    verdicts = list(verify(16, 1))
    assert len(verdicts) > 500 and all(v.ok for v in verdicts)


def test_verify_catalogue_tier_filter():
    # relators and boundary fixation are tier 1, so only tiers=None or a
    # selection with 1 in it checks them
    pres = nonorientable_mcg_presentation(5, 1)
    entries = catalogue(5, 1)
    head = len(pres.relators) + len(pres.generators)
    out = list(verify(5, 1, tiers=(1,)))
    assert out and all(v.tier == 1 for v in out)
    assert len(out) == head + sum(e.tier == 1 for e in entries)
    out = list(verify(5, 1, tiers=(2,)))
    assert [v.label for v in out] == [e.label() for e in entries if e.tier == 2]
    everything = list(verify(5, 1))
    assert len(everything) == head + len(entries)


def _letter_mutants(e):
    """e with one a/u/b letter inverted, for each such letter in turn.

    These letters have infinite order, so each mutant differs from the true
    relation by a conjugate of a nontrivial square and is false. Named
    letters are left alone: r_g is an involution in the closed group."""
    w = e.word
    for i, c in enumerate(w):
        if gen_of(c).fam in "aub":
            yield i, Entry(e.tag, e.params, e.genus, 0, w[:i] + (-c,) + w[i + 1:], (), 3)


def test_tier3_rejects_every_single_letter_inversion():
    import re
    import time

    t0 = time.perf_counter()
    refuted = 0
    wrong = []
    for g in (4, 5, 6):
        for e in catalogue(g, 0):
            if e.tier != 3:
                continue
            for i, m in _letter_mutants(e):
                v = verify_entry(m)
                if not v.ok and re.search(r"^Refuted: .* x_\d+$", v.detail):
                    refuted += 1
                else:
                    wrong.append(f"({g},0) {e.label()} letter {i}: {v.ok} {v.detail}")
    dt = time.perf_counter() - t0
    assert not wrong, "mutants not rejected:\n" + "\n".join(wrong)
    assert refuted > 700, refuted
    assert dt < 10.0, f"mutation sweep exceeded its 10s budget: {dt:.2f}s"


def test_tier3_refutes_wrong_exponents_on_the_squaring_path(monkeypatch, cold_evaluators):
    # the letter inversions above go through the flat relator, which the
    # Evaluator folds letter by letter; these keep the one-part Factored
    # power run^k of B3, B4, B4b, E6 and, at g = 4, smallgenus viii, and
    # change k to k - 1 or k + 1, so a false relation reaches the
    # squaring of the run's table
    import re

    import nmcg.pi1_action as pa

    calls, table_power = [], pa._table_power
    monkeypatch.setattr(pa, "_table_power", lambda t, k: calls.append(k) or table_power(t, k))
    mutants, survivors = 0, []
    for g in range(4, 10):
        for e in catalogue(g, 0):
            if not isinstance(e.lhs, Factored):
                continue
            ((run, k),) = e.lhs.parts
            assert e.tier == 3 and not e.rhs, e.label()
            for j in (k - 1, k + 1):
                calls.clear()
                v = verify_entry(dataclasses.replace(e, lhs=Factored(((run, j),))))
                mutants += 1
                if v.ok or not re.search(r"^Refuted: .* x_\d+$", v.detail) or j not in calls:
                    survivors.append(f"({g},0) {e.label()} exponent {j}: {v.detail}, "
                                     f"squared to {calls}")
    assert not survivors, "mutants not refuted on the squaring path:\n" + "\n".join(survivors)
    # 48 before smallgenus viii at (4,0) was a one-part power
    assert mutants == 50, mutants


def test_tier1_refutes_wrong_exponents_on_the_squaring_path(monkeypatch, cold_evaluators):
    # each one-part power p^k of a tier-1 side (A5, A6, the A8a chain
    # powers and smallgenus vii at (3,1)) with k changed to k - 1 or
    # k + 1: the (g,1) group is torsion-free and the punctured
    # representation faithful, so p^(k+-1) = p^(+-1) p^k is another
    # mapping class, and the squaring of p's table must refute it
    import nmcg.pi1_action as pa

    calls, table_power = [], pa._table_power
    monkeypatch.setattr(pa, "_table_power", lambda t, k: calls.append(k) or table_power(t, k))
    mutants, tags, survivors = 0, set(), []
    for g in range(3, 10):
        for e in [*nonorientable_mcg_presentation(g, 1).relators, *catalogue(g, 1)]:
            for field in ("lhs", "rhs"):
                side = getattr(e, field)
                if e.tag not in ("A5", "A6", "A8a", "smallgenus") or not isinstance(side, Factored):
                    continue
                ((part, k),) = side.parts
                assert e.tier == 1 and k >= 3, e.label()
                tags.add(e.tag)
                for j in (k - 1, k + 1):
                    calls.clear()
                    v = verify_entry(dataclasses.replace(e, **{field: Factored(((part, j),))}))
                    mutants += 1
                    refuted = v.detail == "sides differ in the punctured representation"
                    if v.ok or not refuted or j not in calls:
                        survivors.append(f"({g},1) {e.label()} {field} exponent {j}: "
                                         f"{v.detail}, squared to {calls}")
    assert not survivors, "mutants not refuted on the squaring path:\n" + "\n".join(survivors)
    assert tags == {"A5", "A6", "A8a", "smallgenus"}, tags
    # A5 at g = 5..9, A6 at 7..9: 4 a genus; A8a at rho = 2 from g = 6
    # and rho = 3 from g = 8: 4 each; vii at (3,1): 2
    assert mutants == 58, mutants


def test_tier1_rejects_an_extra_half_twist_on_a_factored_side():
    # Delta_k (k >= 2) is a nontrivial mapping class and the punctured
    # representation is faithful, so side * Delta_k breaks every relation
    mutants = 0
    wrong = []
    for g in (5, 6, 7, 8):
        for e in catalogue(g, 1):
            if e.tier != 1:
                continue
            for field in ("lhs", "rhs"):
                side = getattr(e, field)
                if not isinstance(side, Factored):
                    continue
                for k in range(2, g + 1):
                    bad = Factored(side.parts + ((delta_word(k), 1),))
                    v = verify_entry(dataclasses.replace(e, **{field: bad}))
                    mutants += 1
                    if v.ok or v.detail != "sides differ in the punctured representation":
                        wrong.append(f"({g},1) {e.label()} {field}*Delta_{k}: {v.detail}")
    assert not wrong, "mutants not rejected:\n" + "\n".join(wrong)
    assert mutants > 1000


def _side_mutants(e):
    """e with one a/u/b letter of one side inverted or deleted, for each
    such letter in turn.

    The (g,1) group is torsion-free and the punctured representation is
    faithful, so each mutant side is another mapping class and the
    mutated relation is false at the entry's stated exponent."""
    for field in ("lhs", "rhs"):
        w = letters(getattr(e, field))
        for i, c in enumerate(w):
            if gen_of(c).fam in "aub":
                for repl in ((-c,), ()):
                    yield dataclasses.replace(e, **{field: w[:i] + repl + w[i + 1:]})


def _sweep(entries):
    mutants, survivors = 0, []
    for e in entries:
        for m in _side_mutants(e):
            mutants += 1
            v = verify_entry(m)
            if v.ok or v.tier != e.tier:
                survivors.append(f"({e.genus},1) {e.label()} {m.lhs} = {m.rhs}: {v.detail}")
    return mutants, survivors


def test_tier1_rejects_every_single_letter_mutant():
    import time

    t0 = time.perf_counter()
    entries = []
    for g in (4, 5, 6):
        entries += [e for e in catalogue(g, 1) if e.tier == 1]
        entries += nonorientable_mcg_presentation(g, 1).relators
    mutants, survivors = _sweep(entries)
    dt = time.perf_counter() - t0
    assert not survivors, "mutants not rejected:\n" + "\n".join(survivors[:20])
    # 7068 before B5(2,1), E1(2,1), B6(2), B7(2), B8(2) and B6(3) were
    # dropped; they made 48 mutants per genus. 6924 before the entries that
    # restate a relator or another entry were dropped
    assert mutants >= 6332, mutants
    assert dt < 10.0, f"tier-1 mutation sweep exceeded its 10s budget: {dt:.2f}s"


def _leading_letter_mutants(e):
    """e with the one-letter part that leads a Factored side inverted,
    moved to a neighbouring index, or dropped, each with whether the
    mutated side keeps a letter to splice.

    _side_mutants slices sides into flat tuples, which the Evaluator
    folds letter by letter; these keep the parts, so a false relation
    reaches the splice of its leading letter."""
    for field in ("lhs", "rhs"):
        side = getattr(e, field)
        lead = side.parts[0][0] if isinstance(side, Factored) else None
        if not isinstance(lead, tuple) or len(lead) != 1:
            continue
        ((c,), k), rest = side.parts[0], side.parts[1:]
        x = gen_of(c)
        near = letter(x._replace(idx=x.idx + 1 if x.idx + 1 < e.genus else x.idx - 1), c)
        for lead, spliced in (((-c,), True), ((near,), True), (None, False)):
            parts = rest if lead is None else ((lead, k),) + rest
            yield dataclasses.replace(e, **{field: Factored(parts)}), spliced


def test_tier1_refutes_false_relations_on_the_splice_path(monkeypatch, cold_evaluators):
    import nmcg.pi1_action as pa

    # a mutant side whose letters are a part cached by an earlier test
    # (u_2 u_1, say) would be looked up whole, not spliced
    calls, splice = [], pa.splice
    monkeypatch.setattr(pa, "splice", lambda *args: calls.append(1) or splice(*args))
    mutants, survivors = 0, []
    for g in range(4, 9):
        for e in catalogue(g, 1):
            if e.tag not in ("B5", "E1", "E3", "E4"):
                continue
            for m, spliced in _leading_letter_mutants(e):
                mutants += 1
                calls.clear()
                v = verify_entry(m)
                if v.ok or v.tier != 1 or (spliced and not calls):
                    survivors.append(f"({g},1) {e.label()} {m.lhs.parts} = {m.rhs.parts}: "
                                     f"{v.detail}, {len(calls)} splices")
    assert not survivors, "mutants not refuted on the splice path:\n" + "\n".join(survivors[:20])
    # 630 before B5(2,1) and E1(2,1) were dropped: 6 mutants each per genus;
    # 570 before B5(3,1) and B5(3,2), which restate B2(1), were dropped
    assert mutants == 540, mutants


def _one_inversion_per_side(e, n):
    """e with one a/u/b letter of one side inverted, for each side that
    has one: the n-th such letter, counted cyclically, so that entry by
    entry every position of a side is reached."""
    for field in ("lhs", "rhs"):
        w = letters(getattr(e, field))
        at = [i for i, c in enumerate(w) if gen_of(c).fam in "aub"]
        if at:
            i = at[n % len(at)]
            yield dataclasses.replace(e, **{field: w[:i] + (-w[i],) + w[i + 1:]})


def test_verdicts_match_the_reference_evaluator(cold_evaluators):
    # every fast path (Factored parts, squaring, splice and its run
    # caches, letter steps, the basis-q sibling, boundary_conjugate)
    # against the plain definition: a flat word folded by xsub from the
    # identity in basis x (tests/reference.py). The genera interleave,
    # so a cache keyed without its genus would be read at the wrong one
    from reference import reference_holds, reference_table

    from nmcg.pi1_action import boundary_word, evaluator, xsub
    from nmcg.words import lit

    verdicts = mutants = tables = 0
    for g in (4, 10, 5, 9, 6, 8, 7):
        pres = nonorientable_mcg_presentation(g, 1)
        w = boundary_word(g)
        expected = [(r.label(), reference_holds(r.lhs, r.rhs, g, 0)) for r in pres.relators]
        expected += [(x.label(), xsub(w, reference_table(lit(x), g)) == w) for x in pres.generators]
        expected += [(e.label(), reference_holds(e.lhs, e.rhs, g, e.twist)) for e in catalogue(g, 1)]
        got = [(v.label, v.ok) for v in verify(g, 1)]
        assert got == expected, g
        assert all(ok for _, ok in got), g
        verdicts += len(got)
        # the refute path: a false relation must be refuted by both
        for n, e in enumerate([*pres.relators, *catalogue(g, 1)]):
            for m in _one_inversion_per_side(e, n):
                mutants += 1
                ok = reference_holds(m.lhs, m.rhs, g, m.twist)
                assert verify_entry(m).ok == ok and not ok, (g, e.label(), m.lhs, m.rhs)
        # the table each tier-3 verdict decides on
        for e in catalogue(g, 0):
            if e.tier == 3:
                tables += 1
                table = evaluator(g).evaluate(e.lhs if e.rhs == () else e.word)
                assert table == reference_table(e.word, g), (g, e.label())
    assert (verdicts, mutants, tables) == (1318, 2407, 98), (verdicts, mutants, tables)


def test_tier2_rejects_letter_mutants_and_wrong_twists():
    import time

    t0 = time.perf_counter()
    tier2 = [e for g in range(3, 9) for e in catalogue(g, 1) if e.tier == 2]
    mutants, survivors = _sweep(tier2)
    assert not survivors, "mutants not rejected:\n" + "\n".join(survivors[:20])
    assert mutants > 700, mutants
    # conjugation by w^k determines k from genus 2 on, so every other
    # stated exponent is false
    wrong = 0
    for e in (e for g in range(2, 13) for e in catalogue(g, 1) if e.tier == 2):
        for k in range(-3, 4):
            if k != e.twist:
                wrong += 1
                v = verify_entry(dataclasses.replace(e, twist=k))
                if v.ok:
                    survivors.append(f"({e.genus},1) {e.label()} twist {k}: {v.detail}")
    dt = time.perf_counter() - t0
    assert not survivors, "wrong exponents not rejected:\n" + "\n".join(survivors)
    # 144 before B7(2,closed), which restates B3, was dropped
    assert wrong >= 138, wrong
    assert dt < 5.0, f"tier-2 mutation sweep exceeded its 5s budget: {dt:.2f}s"


def test_tier3_guards_survive_optimize():
    # Refuted is sound only under C'(1/6), i.e. genus >= 4, and only tiers
    # 1-3 are verifiable; python -O strips asserts, so these guards, and
    # those of the closed catalogue, the letter and table builders, the
    # presentation, Smith normal form and coset enumeration, must raise
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import json
from nmcg.abelianized import smith_diagonal
from nmcg.catalogue import Entry, catalogue
from nmcg.cosets import group_order
from nmcg.homology_action import f2_matrix
from nmcg.pi1_action import crosscap_transposition, curve_twist
from nmcg.presentations import Presentation, nonorientable_mcg_presentation
from nmcg.verify import verify_entry
from nmcg.words import gen, gen_of, named, parse

e = next(e for e in catalogue(4, 0) if e.label() == "D")
w = e.word
i = next(i for i, c in enumerate(w) if gen_of(c).fam == "u")
mutant = Entry("D", (), 4, 0, w[:i] + (-w[i],) + w[i + 1:], (), 3)
v = verify_entry(mutant)
out = {"mutant": [v.ok, v.detail]}
for key, entry in (("genus3", Entry("X", (), 3, 0, parse("1"), (), 3)),
                   ("tier4", Entry("X", (), 4, 0, parse("1"), (), 4))):
    try:
        out[key] = ["returned", verify_entry(entry).ok]
    except ValueError as exc:
        out[key] = ["ValueError", str(exc)]
foreign = Presentation(0, 0, (gen("a", 1),), (Entry("X", (), 0, 0, parse("a1 a2")),))
for key, call in (("closed3", lambda: catalogue(3, 0)), ("gen", lambda: gen("z", 1)),
                  ("named", lambda: named("")),
                  ("u4", lambda: crosscap_transposition(4, 4)),
                  ("curve", lambda: curve_twist(1, 6, 4)),
                  ("f2u0", lambda: f2_matrix(parse("u0"), 4)),
                  ("boundary2", lambda: nonorientable_mcg_presentation(4, 2)),
                  ("column", lambda: smith_diagonal([{0: 1, 1: 2}, {2: 3}], 2)),
                  ("foreign", lambda: group_order(foreign))):
    try:
        out[key] = ["returned", repr(call())]
    except ValueError as exc:
        out[key] = ["ValueError", str(exc)]
print(json.dumps(out))
"""
    src = str(Path(verify_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    ok, detail = out["mutant"]
    assert not ok and detail.startswith("Refuted"), detail
    assert out["genus3"][0] == "ValueError" and "genus >= 4" in out["genus3"][1]
    assert out["tier4"][0] == "ValueError" and "tier 4" in out["tier4"][1]
    assert out["closed3"][0] == "ValueError" and "genus >= 4" in out["closed3"][1]
    assert out["gen"][0] == "ValueError" and "'z'" in out["gen"][1]
    assert out["named"][0] == "ValueError" and "nonempty" in out["named"][1]
    assert out["u4"][0] == "ValueError" and "u_4" in out["u4"][1]
    assert out["curve"][0] == "ValueError" and "1..6" in out["curve"][1]
    assert out["f2u0"][0] == "ValueError" and "u_0" in out["f2u0"][1]
    assert out["boundary2"][0] == "ValueError" and "boundary" in out["boundary2"][1]
    assert out["column"][0] == "ValueError" and "outside 0..1" in out["column"][1]
    assert out["foreign"][0] == "ValueError" and "a2" in out["foreign"][1]


def test_src_holds_no_assert():
    # python -O strips asserts, so no check in the package may be one
    import ast
    from pathlib import Path

    root = Path(verify_mod.__file__).resolve().parent
    found = [
        f"{path.relative_to(root.parent)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(root.rglob("*.py"))) >= 11
    assert not found, "assert statements in src/nmcg: " + ", ".join(found)


def test_src_imports_only_the_standard_library():
    # the package has no runtime dependencies: every absolute import names
    # a standard-library module (relative imports stay inside nmcg)
    import ast
    import sys
    from pathlib import Path

    root = Path(verify_mod.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(root.parent)}:{node.lineno} {name}"
                      for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert len(list(root.rglob("*.py"))) >= 11
    assert not found, "non-stdlib imports in src/nmcg: " + ", ".join(found)


def test_src_import_graph_has_no_cycle():
    # each module's relative imports, at any depth, never lead back to it
    import ast
    from graphlib import CycleError, TopologicalSorter
    from pathlib import Path

    root = Path(verify_mod.__file__).resolve().parent
    graph = {}
    for path in sorted(root.glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from . import a, b" names modules; "from .a import x" names one
                deps.update([node.module] if node.module else [a.name for a in node.names])
    assert graph["pi1_action"] >= {"presentations", "words"}
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle in src/nmcg: {err.args[1]}") from None


def test_only_words_and_pi1_action_read_factored_parts():
    # words.pieces is the one walk of a Factored word into its plain
    # pieces; outside words only the Evaluator reads parts, one level at
    # a time, so that nested factors keep their own records
    import ast
    from pathlib import Path

    root = Path(verify_mod.__file__).resolve().parent
    readers = {
        path.stem
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "parts"
    }
    assert readers == {"words", "pi1_action"}, sorted(readers)


def test_every_src_definition_is_named_outside_the_tests():
    # a top-level def or class in src/nmcg, or a public method of one of
    # its classes, that no module of src/nmcg or bench names (as a name,
    # an attribute or an import) is reached only by tests: delete it, and
    # move its tests onto the code that remains
    import ast
    from pathlib import Path

    src = Path(verify_mod.__file__).resolve().parent
    bench = sorted((src.parents[1] / "bench").glob("*.py"))
    assert bench, "bench/*.py not found next to src/"
    defined, named = [], set()
    for path in sorted(src.glob("*.py")) + bench:
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == src:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [(path.stem, f"{node.name}.{m.name}") for m in node.body
                                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = sorted(f"{mod}.{name}" for mod, name in defined
                    if name.rpartition(".")[2] not in named)
    assert unused == [], f"defined in src/nmcg but named only by tests: {unused}"


def test_no_module_imports_a_name_it_does_not_use():
    # every name an import binds in src/nmcg, tests or bench/*.py is read
    # somewhere in that module (__future__ imports bind no name)
    import ast
    from pathlib import Path

    src = Path(verify_mod.__file__).resolve().parent
    repo = src.parents[1]
    paths = sorted(src.glob("*.py")) + sorted((repo / "tests").glob("*.py"))
    paths += sorted((repo / "bench").glob("*.py"))
    assert len(paths) >= 11 + 12 + 4
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unused += [f"{path.relative_to(repo)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == [], f"imported but never used: {unused}"


def test_every_src_default_parameter_is_passed_outside_the_tests():
    # a parameter with a default that no call in src/nmcg or bench/*.py
    # passes, by position or by keyword, is an option only tests set:
    # delete it. Calls are matched by the callee's name, as above, and a
    # constructor by its class's name
    import ast
    from pathlib import Path

    src = Path(verify_mod.__file__).resolve().parent
    bench = sorted((src.parents[1] / "bench").glob("*.py"))
    assert bench, "bench/*.py not found next to src/"
    optional = []  # (function label, call name, position or None, parameter)
    positional, keywords = {}, {}  # call name -> most positional args / keywords passed
    for path in sorted(src.glob("*.py")) + bench:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                n = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    n = float("inf")
                positional[name] = max(positional.get(name, 0), n)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
        if path.parent == src:
            owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for fn in cls.body if isinstance(fn, ast.FunctionDef)}
            optional += [(f"{path.stem}.{label}", *rest)
                         for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                         for label, *rest in _defaults(fn, owner.get(fn))]
    unpassed = sorted(
        f"{label}({param})" for label, name, pos, param in optional
        # the console script calls main() with no argument
        if name != "main"
        and not ({None, param} & keywords.get(name, set()))  # None: a **kwargs call
        and not (pos is not None and positional.get(name, 0) > pos)
    )
    assert unpassed == [], f"defaults in src/nmcg that only tests override: {unpassed}"


def _defaults(fn, cls):
    """(label, call name, position or None, parameter) for each parameter
    of fn with a default; a method's positions skip self."""
    args = fn.args.posonlyargs + fn.args.args
    if cls:
        args = args[1:]
    name = cls if cls and fn.name in ("__init__", "__new__") else fn.name
    label = f"{cls}.{fn.name}" if cls else fn.name
    first = len(args) - len(fn.args.defaults)
    out = [(label, name, i, a.arg) for i, a in enumerate(args) if i >= first]
    out += [(label, name, None, a.arg)
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out
