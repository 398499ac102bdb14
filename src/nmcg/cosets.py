"""Coset enumeration of the trivial subgroup (Todd-Coxeter, plain HLT).

Deterministic by construction: each live coset in turn traces every
relator in presentation order, defining cosets as the scan needs them,
and then fills its row left to right. Coincidences are handled with a
union-find over coset numbers, always keeping the smaller number alive.
The cap bounds the rows ever allocated, dead ones included: defining
one more raises CapExceeded, with no lookahead or compaction to rescue
the run. The table is compacted once, at the end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .words import Word, gen_of, letter
from .presentations import Presentation


class CapExceeded(Exception):
    def __init__(self, cap):
        super().__init__(f"coset enumeration exceeded {cap} cosets")
        self.cap = cap


@dataclass(frozen=True)
class CosetTable:
    generators: tuple
    rows: tuple  # rows[c][2*i] = c.gen_i, rows[c][2*i + 1] = c.gen_i^-1

    def index(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        head = ["coset"]
        for gen in self.generators:
            head.append(gen.label())
            head.append(gen.label() + "^-1")
        out = [",".join(head)]
        for c, row in enumerate(self.rows):
            out.append(",".join(str(v + 1) for v in (c, *row)))
        return "\n".join(out) + "\n"


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets):
        self.gens = tuple(pres.generators)
        self.ncols = 2 * len(self.gens)
        self.colof = {}
        for i, gen in enumerate(self.gens):
            self.colof[letter(gen)], self.colof[letter(gen, -1)] = 2 * i, 2 * i + 1
        self.relators = [self._cols(r.word) for r in pres.relators]
        self.cap = max_cosets
        self.tab = [[None] * self.ncols]
        self.p = [0]

    def _cols(self, word: Word):
        for c in word:
            if c not in self.colof:
                raise ValueError(f"letter {gen_of(c).label()} not a generator")
        return tuple(self.colof[c] for c in word)

    def rep(self, c: int) -> int:
        r = c
        while self.p[r] != r:
            r = self.p[r]
        while self.p[c] != r:
            self.p[c], c = r, self.p[c]
        return r

    def get(self, c: int, col: int):
        t = self.tab[c][col]
        if t is None:
            return None
        r = self.rep(t)
        if r != t:
            self.tab[c][col] = r
        return r

    def define(self, c: int, col: int) -> int:
        if len(self.tab) >= self.cap:
            raise CapExceeded(self.cap)
        n = len(self.tab)
        self.tab.append([None] * self.ncols)
        self.p.append(n)
        self.tab[c][col] = n
        self.tab[n][col ^ 1] = c
        return n

    def coincide(self, a: int, b: int):
        queue = deque([(a, b)])
        while queue:
            x, y = queue.popleft()
            x, y = self.rep(x), self.rep(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.p[y] = x
            row = self.tab[y]
            for col in range(self.ncols):
                t = row[col]
                if t is None:
                    continue
                row[col] = None
                t = self.rep(t)
                if self.tab[t][col ^ 1] is not None and self.rep(self.tab[t][col ^ 1]) == y:
                    self.tab[t][col ^ 1] = x
                cur = self.get(x, col)
                if cur is None:
                    self.tab[x][col] = t
                    back = self.get(t, col ^ 1)
                    if back is None:
                        self.tab[t][col ^ 1] = x
                    elif back != x:
                        queue.append((back, x))
                elif cur != t:
                    queue.append((cur, t))

    def scan(self, c: int, cols):
        f, b = 0, len(cols) - 1
        alpha = beta = c
        while True:
            while f <= b and self.get(alpha, cols[f]) is not None:
                alpha = self.get(alpha, cols[f])
                f += 1
            if f > b:
                if alpha != beta:
                    self.coincide(alpha, beta)
                return
            while b >= f and self.get(beta, cols[b] ^ 1) is not None:
                beta = self.get(beta, cols[b] ^ 1)
                b -= 1
            if b < f:
                self.coincide(alpha, beta)
                return
            if b == f:
                self.tab[alpha][cols[f]] = beta
                self.tab[beta][cols[f] ^ 1] = alpha
                return
            self.define(alpha, cols[f])

    def compact(self):
        """Renumber live cosets by increasing old index."""
        mapping = {}
        for c in range(len(self.tab)):
            if self.rep(c) == c:
                mapping[c] = len(mapping)
        newtab = [[None] * self.ncols for _ in mapping]
        for old, new in mapping.items():
            for col in range(self.ncols):
                t = self.get(old, col)
                if t is not None:
                    newtab[new][col] = mapping[t]
        self.tab = newtab
        self.p = list(range(len(newtab)))

    def _work(self, c: int):
        """Process one live coset: trace all relators, then fill its row."""
        for w in self.relators:
            if w:
                self.scan(c, w)
            if self.rep(c) != c:
                return
        for col in range(self.ncols):
            if self.rep(c) != c:
                return
            if self.get(c, col) is None:
                self.define(c, col)

    def run(self):
        c = 0
        while c < len(self.tab):  # _work may append rows; they are visited too
            if self.rep(c) == c:
                self._work(c)
            c += 1
        self.compact()

    def check_complete(self):
        for c, row in enumerate(self.tab):
            if any(v is None for v in row):
                raise ValueError(f"incomplete row {c}")
            for col, t in enumerate(row):
                if self.tab[t][col ^ 1] != c:
                    raise ValueError("table not involutive")
        for c in range(len(self.tab)):
            for w in self.relators:
                d = c
                for col in w:
                    d = self.tab[d][col]
                if d != c:
                    raise ValueError(f"relator open at coset {c}")


def coset_enumeration(pres: Presentation, max_cosets: int = 10**6) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup: the group's elements."""
    e = _Enumerator(pres, max_cosets)
    e.run()
    e.check_complete()
    return CosetTable(e.gens, tuple(tuple(r) for r in e.tab))


def group_order(pres: Presentation) -> int:
    return coset_enumeration(pres).index()
