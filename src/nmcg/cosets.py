"""Coset enumeration of the trivial subgroup (Todd-Coxeter, plain HLT).

Deterministic by construction: each live coset in turn traces every
relator in presentation order, defining cosets as the scan needs them,
and then fills its row left to right. Coincidences are handled with a
union-find over coset numbers, always keeping the smaller number alive.
MAX_COSETS bounds the rows ever allocated, dead ones included: defining
one more raises CapExceeded, with no lookahead or compaction to rescue
the run, so an infinite group stops there instead of filling memory.
"""

from __future__ import annotations

from collections import deque

from .words import Word, gen_of, letter
from .presentations import Presentation


MAX_COSETS = 10**6


class CapExceeded(Exception):
    """Defining one more coset would pass MAX_COSETS rows."""


class _Enumerator:
    def __init__(self, pres: Presentation):
        self.ncols = 2 * len(pres.generators)
        self.colof = {}
        for i, gen in enumerate(pres.generators):
            self.colof[letter(gen)], self.colof[letter(gen, -1)] = 2 * i, 2 * i + 1
        self.relators = [self._cols(r.word) for r in pres.relators]
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
        if len(self.tab) >= MAX_COSETS:
            raise CapExceeded(f"coset enumeration exceeded {MAX_COSETS} cosets")
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

    def check_complete(self) -> int:
        """Check the live table: full rows, each column inverse to its
        partner, every relator closed at every coset. Return the count."""
        live = [c for c in range(len(self.tab)) if self.rep(c) == c]
        for c in live:
            for col in range(self.ncols):
                t = self.get(c, col)
                if t is None:
                    raise ValueError(f"incomplete row {c}")
                if self.get(t, col ^ 1) != c:
                    raise ValueError("table not involutive")
        for c in live:
            for w in self.relators:
                d = c
                for col in w:
                    d = self.get(d, col)
                if d != c:
                    raise ValueError(f"relator open at coset {c}")
        return len(live)


def group_order(pres: Presentation) -> int:
    """The order of the presented group, by enumerating the cosets of the
    trivial subgroup; CapExceeded past MAX_COSETS."""
    e = _Enumerator(pres)
    e.run()
    return e.check_complete()
