"""Action on first homology of the punctured nonorientable surface.

H_1 is Z^g on the crosscap classes e_1..e_g. Two independent routes:

* F_2 matrices are written down directly and stored as bitmask rows:
  u_i swaps e_i, e_{i+1}, and the twist about the curve through
  crosscaps k..k+m-1 (a_i: k = i, m = 2; b_j: k = 1, m = 2j+2) is the
  transvection by e_k+...+e_{k+m-1}, which for a_i is the same swap.
* Z matrices come from abelianizing the pi_1 action (that derivation
  order is deliberate; the two routes cross-check each other mod 2).

Mapping classes preserve the mod-2 intersection form, which is the
standard dot product in this basis: M^T M = I over F_2. Words of the
closed group act trivially on H_1(closed) = Z^g / (2,...,2), so a
closed relator's Z matrix must be the identity modulo the column vector
(2,...,2); that is the cheap pre-filter before Dehn-algorithm work.
"""

from __future__ import annotations

from collections import OrderedDict

from .words import Word, Gen, inverse
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
    """F2 matrix of a word, expanding non-primitive letters via env."""
    acc = f2_identity(g)
    for gen, sign in word:
        acc = f2_mul(acc, _f2_letter(gen, sign, g, env))
    return acc


_F2_MAX = 8
_f2_shared = OrderedDict()  # (g, id(env)) -> (env, copy of env, matrices), least recent first


def _f2_letter(gen: Gen, sign: int, g, env):
    try:
        return f2_generator(gen, g)  # swaps and transvections square to I
    except KeyError:
        if env is None or gen not in env:
            raise
    # env letters are expanded once per (g, env object), kept and bounded
    # like pi1_action.evaluate's Evaluators; a mutated env misses
    key = (g, id(env))
    hit = _f2_shared.get(key)
    if hit is None or hit[1] != env:
        hit = _f2_shared[key] = (env, dict(env), {})
    _f2_shared.move_to_end(key)
    if len(_f2_shared) > _F2_MAX:
        _f2_shared.popitem(last=False)
    memo = hit[2]
    if (gen, sign) not in memo:
        w = env[gen]
        memo[gen, sign] = tuple(f2_matrix(w if sign > 0 else inverse(w), g, env))
    return memo[gen, sign]


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
    return z_matrix_of_table(pi1_action.evaluate(word, g, env), g)


def z_mul(A, B):
    g = len(A)
    return [
        [sum(A[r][k] * B[k][c] for k in range(g)) for c in range(g)] for r in range(g)
    ]


def z_matrix_by_letters(word: Word, g: int, env=None):
    """Same matrix, but by multiplying per-letter matrices (the
    homomorphism property is the cross-check)."""
    ev = pi1_action.Evaluator(g, env)
    acc = [[int(r == c) for c in range(g)] for r in range(g)]
    for gen, sign in word:
        acc = z_mul(acc, z_matrix_of_table(ev.letter_table(gen, sign), g))
    return acc


def z_mod2(M):
    return [sum((M[r][c] & 1) << c for c in range(len(M))) for r in range(len(M))]


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


def det(M) -> int:
    """Exact integer determinant (fraction-free elimination)."""
    m = [row[:] for row in M]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
