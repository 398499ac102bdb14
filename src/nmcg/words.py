"""Free-group words over a mixed generator alphabet.

A generator is a ``Gen`` (family tag + index, or a bare name). A word is
a tuple of letters, each letter a pair ``(Gen, sign)`` with sign +-1.
Words are tuples so they hash and compare cheaply; nothing here mutates
its input, and the word functions keep the letter objects of their inputs
rather than building a fresh pair per letter; parse_raw shares one pair
per distinct letter across calls.

A ``Factored`` word is a tuple of the same flat, freely reduced letters
that also keeps how it was built: ``parts = ((part, k), ...)``, the
product of part^k in order, each part a word or a ``Factored``. It is a
straight-line program in the sense of Lohrey, *The Compressed Word
Problem for Groups* (2014). Every function here sees only the flat
letters; ``pi1_action.Evaluator`` reads ``parts`` to build the table of a
shared factor (such as the half-twist ``presentations.delta_word(k)``)
once and to take powers by squaring.

Text syntax: letters like ``a3``, ``u2``, ``b0``, ``x4``, or a bare name
(``d``, ``y1``, ``r4``, ``c``, ``v``), separated by ``*`` or whitespace,
with an optional ``^<int>`` exponent (``^-1`` the common case). ``1``
denotes the empty word. A bare ``b`` normalizes to ``b1``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

_FAMS = ("a", "u", "b", "x")
_FAM_RANK = {"a": 0, "u": 1, "b": 2, "x": 3, "n": 4}


class Gen(NamedTuple):
    fam: str  # "a", "u", "b", "x", or "n" for named
    idx: int = 0
    name: str = ""

    def label(self) -> str:
        return self.name if self.fam == "n" else f"{self.fam}{self.idx}"


Letter = tuple  # (Gen, int)
Word = tuple  # tuple of Letter


def gen(fam: str, idx: int) -> Gen:
    if fam not in _FAMS:
        raise ValueError(f"unknown generator family {fam!r}")
    return Gen(fam, idx)


def named(name: str) -> Gen:
    if not name:
        raise ValueError("named generator needs a nonempty name")
    return Gen("n", 0, name)


def gen_sort_key(g: Gen):
    return (_FAM_RANK[g.fam], g.idx, g.name)


def lit(g: Gen, sign: int = 1) -> Word:
    if sign not in (1, -1):
        raise ValueError(f"letter sign must be 1 or -1, not {sign!r}")
    return ((g, sign),)


_TOKEN = re.compile(r"^([A-Za-z][A-Za-z_]*?)(\d*)(?:\^(-?\d+))?$")


def parse_raw(text: str) -> Word:
    """Parse the text syntax letter-for-letter, with no free reduction."""
    out = []
    for tok in text.replace("*", " ").split():
        if tok == "1":
            continue
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad letter {tok!r}")
        base, digits, exp = m.groups()
        if base in _FAMS:
            if not digits:
                if base == "b":
                    g = Gen("b", 1)  # bare b is the genus-4 twist b_1
                else:
                    raise ValueError(f"indexed family letter needs an index: {tok!r}")
            else:
                g = Gen(base, int(digits))
        else:
            g = Gen("n", 0, base + digits)
        k = int(exp) if exp else 1
        out.extend([_letter(g, 1 if k > 0 else -1)] * abs(k))
    return tuple(out)


@lru_cache(maxsize=1024)
def _letter(g: Gen, sign: int) -> Letter:
    """One shared pair per letter, so parsed words do not hold a pair per letter."""
    return (g, sign)


def parse(text: str) -> Word:
    """Parse the text syntax into a freely reduced word."""
    return free_reduce(parse_raw(text))


def fmt(word: Word) -> str:
    """Deterministic inverse of parse (up to free reduction)."""
    if not word:
        return "1"
    parts = []
    for g, s in word:
        parts.append(g.label() if s == 1 else g.label() + "^-1")
    return "*".join(parts)


def free_reduce(word: Iterable) -> Word:
    return concat(word)


def inverse(word: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def concat(*words: Word) -> Word:
    """Freely reduced product; the kept letters are the input's objects."""
    out = []
    for w in words:
        for letter in w:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


class Factored(tuple):
    """The freely reduced word part_1^k_1 part_2^k_2 ..., built from
    parts = ((part, k), ...) and keeping them. The letters are computed
    here from parts, so the flat word and its structure cannot disagree.
    Slices, products and inverses of it are plain words."""

    def __new__(cls, parts):
        parts = tuple(parts)
        self = super().__new__(cls, concat(*(power(p, k) for p, k in parts)))
        self.parts = parts
        return self


def power(word: Word, k: int) -> Word:
    if k < 0:
        word, k = inverse(word), -k
    return concat(*([word] * k)) if k else ()


def conjugate(word: Word, by: Word) -> Word:
    """by * word * by^-1."""
    return concat(by, word, inverse(by))


def cyclic_reduce(word: Word) -> tuple[Word, Word]:
    """Return (core, prefix) with word = prefix * core * prefix^-1.

    The input must already be freely reduced; the core is cyclically
    reduced (first and last letters are not mutually inverse).
    """
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i][0] == w[j - 1][0] and w[i][1] == -w[j - 1][1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def substitute(word: Word, images: Mapping[Gen, Word]) -> Word:
    """Apply the homomorphism sending g to images[g] (default: itself)."""

    def piece(letter):
        img = images.get(letter[0])
        if img is None:
            return (letter,)
        return img if letter[1] == 1 else inverse(img)

    return concat(*map(piece, word))


def gens_of(word: Word) -> set:
    return {g for g, _ in word}


def exponent_sums(word: Word, order: list) -> list:
    """Exponent sum of each generator in `order` (abelianization row)."""
    return exponent_matrix([(word, ())], order)[0]


def exponent_matrix(equations, order: list) -> list:
    """One exponent-sum row of lhs rhs^-1 per equation (lhs, rhs); the
    generator-to-column map is built once. Free reduction does not change
    exponent sums, so lhs rhs^-1 itself is never built."""
    pos = {g: i for i, g in enumerate(order)}
    rows = []
    for lhs, rhs in equations:
        row = [0] * len(order)
        for g, s in lhs:
            row[pos[g]] += s
        for g, s in rhs:
            row[pos[g]] -= s
        rows.append(row)
    return rows
