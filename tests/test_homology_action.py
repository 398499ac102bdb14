"""First-homology actions: the two independent matrix routes, the mod-2
form, and the twist-lattice identity test."""

from hypothesis import given, settings, strategies as st

from nmcg.homology_action import (
    det,
    f2_identity,
    f2_matrix,
    f2_mul,
    is_identity_mod_boundary_class,
    preserves_mod2_form,
    z_matrix,
    z_matrix_by_letters,
    z_matrix_of_table,
    z_mod2,
)
from nmcg.pi1_action import identity_table
from nmcg.presentations import expansion_env, nonorientable_mcg_presentation
from nmcg.words import gen, inverse, lit, parse

_G = 4
_ENV = expansion_env(_G, 1)
_letters = st.tuples(
    st.builds(gen, st.sampled_from("au"), st.integers(1, _G - 1)),
    st.sampled_from((1, -1)),
)
_words = st.lists(_letters, max_size=10).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_words)
def test_integral_routes_agree(w):
    # automorphism-then-abelianize versus letterwise matrix product
    assert z_matrix(w, _G, _ENV) == z_matrix_by_letters(w, _G, _ENV)


@settings(max_examples=60, deadline=None)
@given(_words)
def test_mod2_route_agrees_with_integral(w):
    assert f2_matrix(w, _G, _ENV) == z_mod2(z_matrix(w, _G, _ENV))


@settings(max_examples=40, deadline=None)
@given(_words)
def test_f2_inverse_multiplies_to_identity(w):
    m = f2_matrix(w, _G, _ENV)
    minv = f2_matrix(inverse(w), _G, _ENV)
    assert f2_mul(m, minv) == f2_identity(_G)


def test_generator_matrices_are_unimodular_and_form_preserving():
    for g in (3, 5, 8, 12):
        pres = nonorientable_mcg_presentation(g, 1)
        env = expansion_env(g, 1)
        for gen_ in pres.generators:
            mz = z_matrix(lit(gen_), g, env)
            # the direct F2 rule (swap or curve transvection) against the
            # curve-built pi_1 table, abelianized
            assert f2_matrix(lit(gen_), g, env) == z_mod2(mz), f"{gen_.label()} at g={g}"
            assert det(mz) in (1, -1), f"{gen_.label()} not unimodular at g={g}"
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
    assert det(m) in (1, -1)
    assert m != z_matrix_of_table(identity_table(3), 3)
    assert z_matrix(parse("a1*a1^-1"), 3) == z_matrix_of_table(identity_table(3), 3)
