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
    """Rows indexed by relators, columns by pres.generators."""
    return exponent_matrix([(r.lhs, r.rhs) for r in pres.relators],
                           [letter(x) for x in pres.generators])


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
    """Invariant factors d_1 | d_2 | ... (positive, 1s included).

    One sparse loop: each nonzero row is a {col: value} dict. A round
    takes the entry d of least |d| (ties: shortest row) and clears its
    column by row operations and its row by column operations, each with
    the nearest-integer quotient, so every remainder has |r| <= |d|/2.
    With both clear, |d| is emitted if it divides every remaining entry;
    otherwise an offending row is added to the pivot row, reduced mod d.
    So each round emits or leaves a nonzero entry of at most |d|/2: the
    loop ends, and the entries stay bounded where elimination without
    small remainders lets them explode (Kannan and Bachem, SIAM J.
    Comput. 8, 1979).
    """
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"ragged relation matrix: a row does not have {ncols} entries")
    m = [r for r in ({j: v for j, v in enumerate(row) if v} for row in rows) if r]
    diag = []
    while m:
        _, _, i, j = min((abs(v), len(r), i, j) for i, r in enumerate(m) for j, v in r.items())
        piv = m[i]
        d = piv[j]
        for r in m:
            if r is not piv and j in r:
                q = _nearest(r[j], d)
                for k, v in piv.items():
                    _add(r, k, -q * v)
        col = [r for r in m if j in r]
        for k in [k for k in piv if k != j]:
            q = _nearest(piv[k], d)
            for r in col:
                _add(r, k, -q * r[j])
        if len(col) == 1 and len(piv) == 1:
            # a unit divides every entry, so only |d| > 1 needs the scan
            bad = None if abs(d) == 1 else next(
                (r for r in m if any(v % d for v in r.values())), None)
            if bad is None:
                diag.append(abs(d))
                piv.clear()
            else:
                for k, v in bad.items():
                    _add(piv, k, v - _nearest(v, d) * d)
        m = [r for r in m if r]
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
    return H1Result(
        free_rank=len(pres.generators) - len(diag),
        torsion=tuple(d for d in diag if d > 1),
    )
