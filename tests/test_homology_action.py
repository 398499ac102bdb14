"""First-homology actions: the two independent matrix routes, the mod-2
form, and the twist-lattice identity test."""

import pytest
from hypothesis import given, settings, strategies as st
from reference import sparse_rows

from nmcg.abelianized import smith_diagonal
from nmcg.homology_action import (
    f2_identity,
    f2_matrix,
    is_identity_mod_boundary_class,
    preserves_mod2_form,
    z_matrix,
    z_matrix_of_table,
    z_mod2,
)
from nmcg.pi1_action import Evaluator, evaluate, evaluator, identity_table
from nmcg.presentations import expansion_env, nonorientable_mcg_presentation
from nmcg.words import gen, inverse, letter, lit, named, parse

_G = 4
_ENV = expansion_env(_G, 1)
_letters = st.builds(
    letter,
    st.builds(gen, st.sampled_from("au"), st.integers(1, _G - 1)),
    st.sampled_from((1, -1)),
)
_words = st.lists(_letters, max_size=10).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_words)
def test_integral_routes_agree(w):
    # letterwise matrix product versus automorphism-then-abelianize
    assert z_matrix(w, _G, _ENV) == z_matrix_of_table(evaluate(w, _G, _ENV), _G)


@st.composite
def _env_words(draw):
    g = draw(st.integers(4, 8))
    env = expansion_env(g, 1)
    alphabet = list(nonorientable_mcg_presentation(g, 1).generators) + list(env)
    letters = st.builds(letter, st.sampled_from(alphabet), st.sampled_from((1, -1)))
    return g, env, tuple(draw(st.lists(letters, max_size=12)))


@settings(max_examples=80, deadline=None)
@given(_env_words())
def test_sparse_f2_product_matches_the_dense_fold(case):
    # the curve rules against the independent route: the pi_1 table of
    # the whole word, abelianized, mod 2
    g, env, w = case
    assert f2_matrix(w, g, env) == z_mod2(z_matrix_of_table(evaluate(w, g, env), g))


@pytest.mark.parametrize("g", [12, 16, 20])
def test_both_routes_match_the_table_route_on_every_relator(g):
    for n in (0, 1):
        env = expansion_env(g, n)
        for r in nonorientable_mcg_presentation(g, n).relators:
            ref = z_matrix_of_table(evaluate(r.word, g, env), g)
            assert z_matrix(r.word, g, env) == ref, f"({g},{n}) {r.text()}"
            assert f2_matrix(r.word, g, env) == z_mod2(ref), f"({g},{n}) {r.text()}"


def test_one_evaluator_per_genus_and_a_foreign_env_is_rejected(monkeypatch):
    # a named letter means its genus's own word, so an env is only checked
    g = 5
    env = expansion_env(g, 1)
    w = parse("a1 y1 u2")
    assert f2_matrix(w, g, env) == f2_matrix(w, g)
    assert f2_matrix(w, g, dict(evaluator(g).words)) == f2_matrix(w, g)
    env[named("y1")] = parse("b1 a3^-1")
    for route in (evaluate, f2_matrix, z_matrix):
        with pytest.raises(ValueError, match="y1"):
            route(w, g, env)
    # a name that genus g does not have is foreign too
    env = {**expansion_env(g, 1), named("r9"): parse("u1 u2")}
    for route in (evaluate, f2_matrix, z_matrix):
        with pytest.raises(ValueError, match="r9"):
            route(w, g, env)
    assert evaluator(g) is evaluator(g)
    # (g,0) and (g,1) share the Evaluator of genus g: a warm pass over
    # the relators of both builds none
    surfaces = [(g, n, nonorientable_mcg_presentation(g, n)) for g in range(3, 9) for n in (0, 1)]

    def homology_pass():
        for g, n, pres in surfaces:
            env = expansion_env(g, n)
            for r in pres.relators:
                assert z_matrix(r.word, g, env) == z_matrix_of_table(evaluate(r.word, g, env), g)
                assert f2_matrix(r.word, g, env) == z_mod2(z_matrix(r.word, g, env))

    homology_pass()
    builds, init = [0], Evaluator.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "__init__", counting)
    homology_pass()
    assert builds[0] == 0


@given(st.integers(1, 9).flatmap(
    lambda g: st.lists(st.lists(st.integers(-9, 9), min_size=g, max_size=g),
                       min_size=g, max_size=g)))
def test_z_mod2_matches_the_generator_sum_definition(M):
    g = len(M)
    assert z_mod2(M) == [sum((M[r][c] & 1) << c for c in range(g)) for r in range(g)]


@settings(max_examples=60, deadline=None)
@given(_words)
def test_mod2_route_agrees_with_integral(w):
    assert f2_matrix(w, _G, _ENV) == z_mod2(z_matrix(w, _G, _ENV))


@settings(max_examples=40, deadline=None)
@given(_words)
def test_f2_inverse_multiplies_to_identity(w):
    # w w^-1 letter for letter, not freely reduced
    assert f2_matrix(w + inverse(w), _G, _ENV) == f2_identity(_G)


@given(st.integers(1, 8).flatmap(
    lambda g: st.lists(st.integers(0, (1 << g) - 1), min_size=g, max_size=g)))
def test_preserves_mod2_form_matches_the_definition(M):
    # (M^T M)[r][c] is the sum over k of M[k][r] M[k][c], mod 2
    g = len(M)
    dense = [[row >> c & 1 for c in range(g)] for row in M]
    mtm = [[sum(dense[k][r] * dense[k][c] for k in range(g)) % 2 for c in range(g)]
           for r in range(g)]
    assert preserves_mod2_form(M) == all(mtm[r][c] == (r == c) for r in range(g) for c in range(g))


def test_generator_matrices_are_unimodular_and_form_preserving():
    for g in (3, 5, 8, 12, 20, 24):
        pres = nonorientable_mcg_presentation(g, 1)
        env = expansion_env(g, 1)
        for gen_ in pres.generators:
            mz = z_matrix(lit(gen_), g, env)
            # the direct F2 rule (swap or curve transvection) against the
            # curve-built pi_1 table, abelianized
            assert f2_matrix(lit(gen_), g, env) == z_mod2(mz), f"{gen_.label()} at g={g}"
            assert smith_diagonal(sparse_rows(mz), g) == (1,) * g, f"{gen_.label()} not unimodular at g={g}"
            assert preserves_mod2_form(z_mod2(mz)), (
                f"{gen_.label()} breaks the mod-2 form at g={g}"
            )


def test_preserves_mod2_form_negative():
    # a single off-diagonal bit breaks the diagonal crosscap form
    ident = f2_identity(3)
    rows = list(ident)
    rows[0] |= rows[1]
    assert not preserves_mod2_form(tuple(rows))
    assert preserves_mod2_form(ident)


def test_identity_mod_twist_lattice():
    ident = z_matrix_of_table(identity_table(3), 3)
    assert is_identity_mod_boundary_class(ident)
    shifted = tuple(
        tuple(ident[i][j] + (2 if j == 1 else 0) for j in range(3)) for i in range(3)
    )
    assert is_identity_mod_boundary_class(shifted), (
        "columns may move by even multiples of the boundary class"
    )
    odd = tuple(
        tuple(ident[i][j] + (1 if j == 1 else 0) for j in range(3)) for i in range(3)
    )
    assert not is_identity_mod_boundary_class(odd)
    skew = tuple(
        tuple(ident[i][j] + (2 if (i, j) == (0, 1) else 0) for j in range(3))
        for i in range(3)
    )
    assert not is_identity_mod_boundary_class(skew), (
        "a column must move by a constant vector, not a single entry"
    )


def test_twist_matrix_pins():
    # the elementary twist a1 acts on crosscap classes by a transvection
    m = z_matrix(parse("a1"), 3)
    assert smith_diagonal(sparse_rows(m), 3) == (1,) * 3
    assert m != z_matrix_of_table(identity_table(3), 3)
    assert z_matrix(parse("a1*a1^-1"), 3) == z_matrix_of_table(identity_table(3), 3)


def test_every_route_rejects_a_named_letter_its_genus_lacks():
    # c is named from genus 6 on, and r_g only at genus g
    for route in (evaluate, f2_matrix, z_matrix):
        with pytest.raises(KeyError, match=" c"):
            route(parse("c"), 5)
    with pytest.raises(KeyError, match=" r5 at genus 4"):
        evaluate(parse("r5"), 4)


@pytest.mark.parametrize("label", ["u0", "u4", "a0", "a4", "b2"])
def test_both_routes_reject_generators_outside_the_genus(label):
    # unchecked, u0 indexes row -1 and swaps the last and first rows
    with pytest.raises(ValueError):
        f2_matrix(parse(label), 4)
    with pytest.raises(ValueError):
        evaluate(parse(label), 4)
