"""Action on first homology of the punctured nonorientable surface.

H_1 is Z^g on the crosscap classes e_1..e_g. Two independent routes,
each a product of per-letter matrices in word order (the action is a
homomorphism), cross-check each other mod 2:

* F_2 matrices come from direct rules, as bitmask rows: u_i swaps e_i,
  e_{i+1}, and the twist about the curve through crosscaps k..k+m-1
  (a_i: k = i, m = 2; b_j: k = 1, m = 2j+2) is the transvection by
  e_k+...+e_{k+m-1}, which for a_i is the same swap. A named letter is
  the product over its word.
* Z matrices abelianize the pi_1 letter tables. z_matrix_of_table
  abelianizes a whole table, the reference for the letterwise product.

Each letter's matrix is built once per genus and kept as the rows
(F_2) or columns (Z) where it differs from the identity, in the cache of
the shared pi1_action.evaluator(g); a product rebuilds only those.

Mapping classes preserve the mod-2 intersection form, which is the
standard dot product in this basis: M^T M = I over F_2. Words of the
closed group act trivially on H_1(closed) = Z^g / (2,...,2), so a
closed relator's Z matrix must be the identity modulo the column vector
(2,...,2), which is_identity_mod_boundary_class tests.
"""

from __future__ import annotations

from .words import Word, Gen, gen_of, inverse
from . import pi1_action


# ---- F_2 route: rows are bitmasks, bit c of row r is M[r][c] ----------


def f2_identity(g: int):
    return [1 << r for r in range(g)]


def f2_generator(gen: Gen, g: int):
    """The range checks are those of pi1_action's builders, so both
    routes reject a generator that does not exist at genus g."""
    m = f2_identity(g)
    if gen.fam == "u":
        i = gen.idx - 1
        if not 0 <= i <= g - 2:
            raise ValueError(f"no crosscap transposition u_{gen.idx} at genus {g}")
        m[i], m[i + 1] = m[i + 1], m[i]
        return m
    if gen.fam in ("a", "b"):
        k, n = (gen.idx - 1, 2) if gen.fam == "a" else (0, 2 * gen.idx + 2)
        if k < 0 or k + n > g:
            raise ValueError(f"no two-sided curve through crosscaps {k + 1}..{k + n} at genus {g}")
        curve = ((1 << n) - 1) << k
        for r in range(k, k + n):
            m[r] ^= curve
        return m
    raise KeyError(f"no direct F2 matrix for {gen.label()}")


def f2_mul(A, B):
    g = len(A)
    out = []
    for r in range(g):
        row, bits = 0, A[r]
        for k in range(g):
            if bits >> k & 1:
                row ^= B[k]
        out.append(row)
    return out


def f2_matrix(word: Word, g: int, env=None):
    """F2 matrix of a word, the product of its letters' matrices; a named
    letter's is the product over its word. env, if given, is checked as
    by pi1_action.evaluate."""
    ev = pi1_action.checked_evaluator(g, env)
    return _f2_product(ev, ev.homology.setdefault("f2", {}), word)


def _f2_product(ev, cache, word: Word):
    """Row r of acc L is (acc[r] & ~mask) ^ XOR{L[k] : k moved, bit k of acc[r]}."""
    acc = f2_identity(ev.g)
    for c in word:
        hit = cache.get(c)
        if hit is None:
            hit = cache[c] = _f2_letter(ev, cache, c)
        mask, moved = hit
        keep = ~mask
        for r, row in enumerate(acc):
            if row & mask:
                out = row & keep
                for k, lk in moved:
                    if row >> k & 1:
                        out ^= lk
                acc[r] = out
    return acc


def _f2_letter(ev, cache, c: int):
    """(mask, moved) of letter c: moved holds (k, row k) for each row k
    that differs from the identity's, and mask has bit k set for each."""
    gen = gen_of(c)
    try:
        m = f2_generator(gen, ev.g)  # swaps and transvections square to I
    except KeyError:
        w = ev.words.get(gen)
        if w is None:
            raise
        m = _f2_product(ev, cache, w if c > 0 else inverse(w))
    moved = tuple((k, row) for k, row in enumerate(m) if row != 1 << k)
    return sum(1 << k for k, _ in moved), moved


def f2_transpose(M):
    g = len(M)
    return [sum((M[r] >> c & 1) << r for r in range(g)) for c in range(g)]


def preserves_mod2_form(M) -> bool:
    return f2_mul(f2_transpose(M), M) == f2_identity(len(M))


# ---- Z route: abelianized pi_1 action ---------------------------------


def z_matrix_of_table(table, g: int):
    """Column i-1 is the exponent vector of the image of x_i."""
    cols = []
    for i in range(g):
        v = [0] * g
        for c in table[i]:
            v[abs(c) - 1] += 1 if c > 0 else -1
        cols.append(v)
    return [[cols[c][r] for c in range(g)] for r in range(g)]


def z_matrix(word: Word, g: int, env=None):
    """Z matrix of a word, the product of its letters' matrices; it equals
    z_matrix_of_table(pi1_action.evaluate(word, g), g). env, if given, is
    checked as by pi1_action.evaluate."""
    ev = pi1_action.checked_evaluator(g, env)
    cache = ev.homology.setdefault("z", {})
    cols = [[int(r == c) for r in range(g)] for c in range(g)]
    for c in word:
        hit = cache.get(c)
        if hit is None:
            hit = cache[c] = _z_letter(ev, c)
        new = cols[:]
        for c, ((k, a), *rest) in hit:  # column c of acc L = sum of L[k][c] acc[:, k]
            col = cols[k] if a == 1 else [a * x for x in cols[k]]
            for k, a in rest:
                col = [x + a * y for x, y in zip(col, cols[k])]
            new[c] = col
        cols = new
    return [list(row) for row in zip(*cols)]


def _z_letter(ev, letter: int):
    """The columns c where a letter's abelianized pi_1 table differs from
    the identity, each as (c, ((row k, coefficient), ...)) over its
    nonzero entries (never empty: the matrix is invertible)."""
    m = z_matrix_of_table(ev.letter_table(letter), ev.g)
    cols = ((c, tuple((k, row[c]) for k, row in enumerate(m) if row[c])) for c in range(ev.g))
    return tuple((c, terms) for c, terms in cols if terms != ((c, 1),))


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

