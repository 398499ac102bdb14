"""Free-group words over a mixed generator alphabet, and the package's
one word kernel.

A generator is a ``Gen`` (family tag + index, or a bare name). A letter
is a signed int: letter(gen, sign) interns each Gen once per process as
+k (its inverse is -k), and gen_of maps a letter back. Ids follow
first-sight order, so no output may depend on their values; labels
appear only where words are parsed or printed. A word is a tuple of
letters; nothing here mutates its input.

The kernel is free_reduce, inverse, mul and power. Its contract: mul
and power take freely reduced words and never re-scan them (only
letters where two factors meet can cancel); free_reduce and parse are
the entry points that take any word. Every product in the package, the
presentations' and catalogue's sides included, is made by mul, power or
Factored from pieces that are already reduced. pi1_action and
one_relator use the kernel for their words in x_1..x_g, signed ints with
+i for x_i, and one_relator keeps the contract: dehn_reduce and
equal_in_quotient take freely reduced words, like mul and power.

A ``Factored`` word keeps only how it is built: ``parts = ((part, k),
...)``, the product of part^k in order, each part a freely reduced word
or a ``Factored``. It is a straight-line program in the sense of Lohrey,
*The Compressed Word Problem for Groups* (2014), and holds no flat
letters. ``pieces`` is the one walk of it into its plain pieces, in
order, each with its exponent: ``letters`` joins them where a word is
printed or matched, fmt prints a ``Factored`` word by its letters,
exponent_matrix adds up their exponent sums, and every other function
here takes plain words only. Outside this module only
``pi1_action.Evaluator`` reads ``parts``, one level at a time, to build
the table of a shared factor (such as the half-twist
``presentations.delta_word(k)``) once and to take powers by squaring.

Text syntax: letters like ``a3``, ``u2``, ``b0``, or a bare name (``d``,
``y1``, ``r4``, ``c``, ``v``), separated by ``*`` or whitespace,
with an optional ``^<int>`` exponent (``^-1`` the common case). ``1``
denotes the empty word. A bare ``b`` normalizes to ``b1``.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple

_FAMS = ("a", "u", "b")


class Gen(NamedTuple):
    fam: str  # "a", "u", "b", or "n" for named
    idx: int = 0
    name: str = ""

    def label(self) -> str:
        return self.name if self.fam == "n" else f"{self.fam}{self.idx}"


Letter = int  # +k for the k-th interned Gen, -k for its inverse
Word = tuple  # tuple of Letter


def gen(fam: str, idx: int) -> Gen:
    if fam not in _FAMS:
        raise ValueError(f"unknown generator family {fam!r}")
    return Gen(fam, idx)


def named(name: str) -> Gen:
    if not name:
        raise ValueError("named generator needs a nonempty name")
    return Gen("n", 0, name)


_ids = {}  # Gen -> its positive letter
_gens = [None]  # positive letter -> Gen


def letter(g: Gen, sign: int = 1) -> Letter:
    """The letter g^sign; g is interned on first sight."""
    k = _ids.get(g)
    if k is None:
        k = _ids[g] = len(_gens)
        _gens.append(g)
    return k if sign > 0 else -k


def gen_of(c: Letter) -> Gen:
    return _gens[abs(c)]


def lit(g: Gen) -> Word:
    return (letter(g),)


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
        out.extend([letter(g, 1 if k > 0 else -1)] * abs(k))
    return tuple(out)


def parse(text: str) -> Word:
    """Parse the text syntax into a freely reduced word."""
    return free_reduce(parse_raw(text))


def fmt(word: Word) -> str:
    """Deterministic inverse of parse (up to free reduction); a Factored
    word prints as its letters."""
    return "*".join(gen_of(c).label() + ("" if c > 0 else "^-1") for c in letters(word)) or "1"


# ---- the word kernel ------------------------------------------------------


def free_reduce(seq: Iterable) -> Word:
    """Free reduction of any sequence of letters, one letter at a time."""
    out = []
    for c in seq:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


class _Negations(dict):
    """c -> -c, each negated letter made once: CPython caches only the
    ints -5..256, so a fresh -c per inverse would be a new object in every
    cached table image."""

    def __missing__(self, c):
        self[c] = n = -c
        return n


_negate = _Negations().__getitem__


def inverse(word: Word) -> Word:
    return tuple(map(_negate, reversed(word)))


def mul(*words: Word) -> Word:
    """Free reduction of the concatenation of words, each of which must be
    freely reduced: then only letters where the result so far meets the
    next word can cancel, and the rest of that word is appended whole.
    A word whose first letter does not cancel is appended whole at once;
    at a cancelling junction, letters are popped one at a time."""
    out = []
    for w in words:
        if out and w and out[-1] == -w[0]:
            i, n = 0, len(w)
            while i < n and out and out[-1] == -w[i]:
                out.pop()
                i += 1
            out += w[i:]
        else:
            out += w
    return tuple(out)


def power(word: Word, k: int) -> Word:
    """word^k of a freely reduced word, by mul: the word is not re-scanned."""
    if k < 0:
        word, k = inverse(word), -k
    return mul(*([word] * k)) if k else ()


# ---- built on the kernel --------------------------------------------------


class Factored:
    """The word part_1^k_1 part_2^k_2 ..., kept as parts = ((part, k), ...)
    and nothing else. Equality and hash are those of parts, the hash
    computed once. It cannot be iterated, so a flat read fails instead
    of expanding it: pieces(w) gives its plain pieces and letters(w) its
    letters. Its len, and so its truth value, is that of letters(w),
    built for the call and dropped, for a caller that counts letters by
    len (bench/tracing.py); the package takes no len of a Factored."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._hash = hash(self.parts)

    def __eq__(self, other):
        return type(other) is Factored and self._hash == other._hash and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(letters(self))


def pieces(word, k: int = 1):
    """The plain words whose product is word^k, in order, each with its
    nonzero exponent: (word, k) for a plain word, else the parts' pieces,
    the parts reversed and negated when k < 0 and walked |k| times. It is
    the one walk of a Factored word, and lazy, so a reader may stop early;
    one iterator per open level on a stack keeps a piece's cost flat at
    any depth (Delta_k nests k - 2 deep)."""
    if type(word) is not Factored:
        if k:
            yield word, k
        return
    stack = [iter(((word, k),))]
    while stack:
        for w, e in stack[-1]:
            if type(w) is Factored:
                parts = w.parts if e > 0 else [(p, -x) for p, x in reversed(w.parts)]
                stack.append(iter(parts * abs(e)))
                break
            if e:
                yield w, e
        else:
            stack.pop()


def letters(word) -> Word:
    """The flat, freely reduced letters of a plain word (itself) or of a
    Factored word: its pieces, each repeated |k| times (inverted when
    k < 0), joined by one mul, so the cost is the length of the
    unreduced product, and nothing is kept after it."""
    if type(word) is not Factored:
        return word
    return mul(*[q for w, k in pieces(word) for q in [w if k > 0 else inverse(w)] * abs(k)])


def cyclic_reduce(word: Word) -> Word:
    """The core of a freely reduced word: word = p * core * p^-1 with the
    core cyclically reduced (first and last letters not mutually inverse)."""
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[i:j]


def cyclic_canon(word: Word) -> Word:
    """The least rotation of the cyclic core of a freely reduced word or of its
    inverse: equal for two words iff one is conjugate to the other or its inverse."""
    w = cyclic_reduce(word)
    return min(r[i:] + r[:i] for r in (w, inverse(w)) for i in range(max(len(r), 1)))


def substitute(word: Word, images: Mapping[Letter, Word]) -> Word:
    """Apply the homomorphism sending each positive letter c to images[c]
    (default: itself) to a freely reduced word; each image must be freely
    reduced too."""

    def piece(c):
        img = images.get(abs(c))
        if img is None:
            return (c,)
        return img if c > 0 else inverse(img)

    return mul(*map(piece, word))


def exponent_matrix(equations, columns) -> list:
    """One sparse exponent-sum row {column: sum} of lhs rhs^-1 per equation
    (lhs, rhs), with no zero sum ({} if all vanish, as when rhs is lhs
    reversed, a commutation); column i is the positive letter columns[i].
    The sums gather in one reused list; lhs rhs^-1 is never built. An
    equation with a Factored side is read by pieces(lhs) and
    pieces(rhs, -1), each piece p of exponent k adding k times the sums
    of p, and is never flattened; one with plain sides, the common case,
    is read letter by letter, and a commutation is skipped unread."""
    pos = {}
    for i, c in enumerate(columns):
        pos[c], pos[-c] = (i, 1), (i, -1)
    rows, acc = [], [0] * len(columns)
    for lhs, rhs in equations:
        row = {}
        if type(lhs) is Factored or type(rhs) is Factored:
            sides = [*pieces(lhs), *pieces(rhs, -1)]
            for w, k in sides:
                for c in w:
                    i, s = pos[c]
                    acc[i] += k * s
            for w, _ in sides:  # read and reset the columns touched
                for c in w:
                    i = pos[c][0]
                    if acc[i]:
                        row[i], acc[i] = acc[i], 0
        elif lhs != rhs[::-1]:
            for c in lhs:
                i, s = pos[c]
                acc[i] += s
            for c in rhs:
                i, s = pos[c]
                acc[i] -= s
            for c in lhs + rhs:  # read and reset the columns touched
                i = pos[c][0]
                if acc[i]:
                    row[i], acc[i] = acc[i], 0
        rows.append(row)
    return rows
