"""Abelianization of a finite presentation.

H_1 of the presented group is Z^gens modulo the row space of the
relation matrix; the Smith normal form gives the invariant-factor
decomposition. Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import exponent_sums
from .presentations import Presentation


def relation_matrix(pres: Presentation):
    """Rows indexed by relators, columns by pres.generators."""
    return [exponent_sums(r.word, pres.generators) for r in pres.relators]


def _pick_pivot(m, t, nr, nc):
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            v = m[i][j]
            if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_diagonal(rows, ncols) -> tuple:
    """Invariant factors d_1 | d_2 | ... (positive, 1s included)."""
    m = [list(r) for r in rows]
    nr, nc = len(m), ncols
    if any(len(r) != nc for r in m):
        raise ValueError(f"ragged relation matrix: a row does not have {nc} entries")
    diag = []
    t = 0
    while t < min(nr, nc):
        piv = _pick_pivot(m, t, nr, nc)
        if piv is None:
            break
        i, j = piv
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for c in range(t, nc):
                        m[i][c] -= q * m[t][c]
                    if m[i][t]:  # remainder is a strictly smaller pivot
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for r in range(t, nr):
                        m[r][j] -= q * m[r][t]
                    if m[t][j]:
                        for r in range(t, nr):
                            m[r][t], m[r][j] = m[r][j], m[r][t]
                        dirty = True
        d = m[t][t]
        bad = None
        for i in range(t + 1, nr):
            if any(m[i][j] % d for j in range(t + 1, nc)):
                bad = i
                break
        if bad is not None:
            for c in range(t, nc):
                m[t][c] += m[bad][c]
            continue
        diag.append(abs(d))
        t += 1
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
