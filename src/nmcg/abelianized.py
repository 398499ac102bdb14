"""Abelianization of a finite presentation.

H_1 of the presented group is Z^gens modulo the row space of the
relation matrix; the Smith normal form gives the invariant-factor
decomposition. Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import exponent_matrix, letter
from .presentations import Presentation


def relation_matrix(pres: Presentation):
    """The nonzero sparse rows of exponent_matrix, a column per generator."""
    return [row for row in exponent_matrix([(r.lhs, r.rhs) for r in pres.relators],
                                           [letter(x) for x in pres.generators]) if row]


def _nearest(a, d):
    """The integer q nearest a/d, so that |a - q*d| <= |d|/2."""
    return (2 * a + d) // (2 * d)


def _add(row, k, x):
    """row[k] += x in a sparse row, dropping a zero."""
    x += row.get(k, 0)
    if x:
        row[k] = x
    else:
        row.pop(k, None)


def smith_diagonal(rows, ncols) -> tuple:
    """Invariant factors d_1 | d_2 | ... (positive, 1s included) of the
    matrix with the sparse rows {col: value} (no zero value, col in
    0..ncols-1) that relation_matrix builds; the rows are not changed.

    One loop. A round pivots on the first entry d = +-1 in row order, or,
    with no unit left, on the entry d of least |d| (ties: shortest row),
    and clears its column by row operations with the nearest-integer
    quotient, so every remainder has |r| <= |d|/2. A unit leaves none and
    divides every entry, so 1 is emitted and its row dropped whole: the
    column operations that would clear it touch no other row. Otherwise
    column operations clear the row likewise, and |d| is emitted if it
    divides every remaining entry; if not, an offending row is added to
    the pivot row, reduced mod d. So each round emits or leaves a nonzero
    entry of at most |d|/2: the loop ends, and the entries stay bounded
    where elimination without small remainders lets them explode (Kannan
    and Bachem, SIAM J. Comput. 8, 1979).
    """
    m = [dict(r) for r in rows]
    if not set().union(*m) <= set(range(ncols)) or not all(map(all, map(dict.values, m))):
        raise ValueError(f"bad relation row: a zero value or a column outside 0..{ncols - 1}")
    diag = []
    while m := [r for r in m if r]:
        piv, j = next(((r, j) for r in m for j, v in r.items() if v in (1, -1)), (None, None))
        if piv is None:
            _, _, i, j = min((abs(v), len(r), i, j) for i, r in enumerate(m) for j, v in r.items())
            piv = m[i]
        d = piv[j]
        for r in [r for r in m if j in r and r is not piv]:
            q = _nearest(r[j], d)
            for k, v in piv.items():
                _add(r, k, -q * v)
        if d not in (1, -1):
            col = [r for r in m if j in r]
            for k in [k for k in piv if k != j]:
                q = _nearest(piv[k], d)
                for r in col:
                    _add(r, k, -q * r[j])
            if len(col) > 1 or len(piv) > 1:
                continue
            bad = next((r for r in m if any(v % d for v in r.values())), None)
            if bad is not None:
                for k, v in bad.items():
                    _add(piv, k, v - _nearest(v, d) * d)
                continue
        diag.append(abs(d))
        piv.clear()
    return tuple(diag)


@dataclass(frozen=True)
class H1Result:
    free_rank: int
    torsion: tuple  # invariant factors > 1, each dividing the next

    def label(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


def h1(pres: Presentation) -> H1Result:
    diag = smith_diagonal(relation_matrix(pres), len(pres.generators))
    return H1Result(len(pres.generators) - len(diag), tuple(d for d in diag if d > 1))
