"""Action on first homology of the punctured nonorientable surface.

H_1 is Z^g on the crosscap classes e_1..e_g. Two independent routes,
each a product of per-letter matrices in word order (the action is a
homomorphism), cross-check each other mod 2:

* F_2 matrices come from one direct rule: mod 2, every a_i, u_i and b_j
  acts as the transvection x -> x + (x.v)v by the class v of a curve,
  e_i + e_{i+1} for a_i and u_i (for u_i this is the swap of e_i and
  e_{i+1}) and e_1 + ... + e_{2j+2} for b_j. A named letter is replaced
  by its word.
* Z matrices abelianize the pi_1 letter tables. z_matrix_of_table
  abelianizes a whole table, the reference for the letterwise product.

The curve of each letter, and the Z columns where each letter's matrix
differs from the identity, are cached here per (letter, genus); the
pi1_action Evaluator holds no homology state.

Mapping classes preserve the mod-2 intersection form, which is the
standard dot product in this basis: M^T M = I over F_2. Words of the
closed group act trivially on H_1(closed) = Z^g / (2,...,2), so a
closed relator's Z matrix must be the identity modulo the column vector
(2,...,2), which is_identity_mod_boundary_class tests.
"""

from __future__ import annotations

from functools import lru_cache

from .words import Word, exponent_matrix, gen_of, inverse
from . import pi1_action


# ---- F_2 route: rows are bitmasks, bit c of row r is M[r][c] ----------


def f2_identity(g: int):
    return [1 << r for r in range(g)]


@lru_cache(maxsize=None)
def _curve(c: int, g: int):
    """Bitmask of the curve class whose transvection is letter c's action
    mod 2, or None for a named letter. The range checks are those of
    pi1_action's builders, so both routes reject a generator that does
    not exist at genus g."""
    gen = gen_of(c)
    if gen.fam == "u":
        if not 1 <= gen.idx <= g - 1:
            raise ValueError(f"no crosscap transposition u_{gen.idx} at genus {g}")
        return 3 << (gen.idx - 1)
    if gen.fam in ("a", "b"):
        k, n = (gen.idx - 1, 2) if gen.fam == "a" else (0, 2 * gen.idx + 2)
        if k < 0 or k + n > g:
            raise ValueError(f"no two-sided curve through crosscaps {k + 1}..{k + n} at genus {g}")
        return ((1 << n) - 1) << k
    return None


def f2_matrix(word: Word, g: int, env=None):
    """F2 matrix of a word, the product of its letters' matrices; a named
    letter's is the product over its word. env, if given, is checked as
    by pi1_action.evaluate."""
    rows = f2_identity(g)
    _f2_apply(rows, word, g, pi1_action.checked_evaluator(g, env).words)
    return rows


def _f2_apply(rows, word: Word, g: int, words):
    """rows <- rows M(word), in place: row x times the transvection by v
    is x + (x.v)v."""
    for c in word:
        v = _curve(c, g)
        if v is None:
            gen = gen_of(c)
            w = words.get(gen)
            if w is None:
                raise KeyError(f"no direct F2 matrix for {gen.label()}")
            _f2_apply(rows, w if c > 0 else inverse(w), g, words)
            continue
        for r, row in enumerate(rows):
            if (row & v).bit_count() & 1:
                rows[r] = row ^ v


def preserves_mod2_form(M) -> bool:
    """M^T M = I over F_2, tested as M M^T = I (the same for a square M):
    rows r and s share an odd number of bits iff r = s."""
    g = len(M)
    return all((M[r] & M[s]).bit_count() % 2 == (r == s) for r in range(g) for s in range(r + 1))


# ---- Z route: abelianized pi_1 action ---------------------------------


def z_matrix_of_table(table, g: int):
    """Column i-1 is the exponent vector of the image of x_i."""
    cols = exponent_matrix([(im, ()) for im in table], range(1, g + 1))
    return [[col.get(r, 0) for col in cols] for r in range(g)]


def z_matrix(word: Word, g: int, env=None):
    """Z matrix of a word, the product of its letters' matrices; it equals
    z_matrix_of_table(pi1_action.evaluate(word, g), g). env, if given, is
    checked as by pi1_action.evaluate."""
    pi1_action.checked_evaluator(g, env)
    cols = [[int(r == c) for r in range(g)] for c in range(g)]
    for c in word:
        new = cols[:]
        for j, ((k, a), *rest) in _z_letter(c, g):  # column j of acc L = sum of L[k][j] acc[:, k]
            col = cols[k] if a == 1 else [a * x for x in cols[k]]
            for k, a in rest:
                col = [x + a * y for x, y in zip(col, cols[k])]
            new[j] = col
        cols = new
    return [list(row) for row in zip(*cols)]


@lru_cache(maxsize=None)
def _z_letter(c: int, g: int):
    """The columns j where letter c's abelianized pi_1 table differs from
    the identity, each as (j, ((row k, coefficient), ...)) over its
    nonzero entries (never empty: the matrix is invertible)."""
    m = z_matrix_of_table(pi1_action.evaluator(g).letter_table(c), g)
    terms = (tuple((k, a) for k, a in enumerate(col) if a) for col in zip(*m))
    return tuple((j, t) for j, t in enumerate(terms) if t != ((j, 1),))


def z_mod2(M):
    """M mod 2 as F_2 bitmask rows."""
    out = []
    for row in M:
        v = 0
        for c, x in enumerate(row):
            if x & 1:
                v |= 1 << c
        out.append(v)
    return out


def is_identity_mod_boundary_class(M) -> bool:
    """True iff M = I on Z^g / <(2,..,2)>: each column differs from e_i
    by an integer multiple of (2,...,2)."""
    g = len(M)
    for c in range(g):
        col = [M[r][c] - (1 if r == c else 0) for r in range(g)]
        lam = col[0]
        if lam % 2 or any(v != lam for v in col):
            return False
    return True

