"""Abelianization: Smith normal form, first homology of the shipped
presentations, and invariance under presentation reshuffling."""

import itertools
import random
import time
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from nmcg.abelianized import h1, relation_matrix, smith_diagonal
from nmcg.presentations import (
    Entry,
    Presentation,
    nonorientable_mcg_presentation,
)
from nmcg.words import exponent_matrix, gen, letter, parse


def _toy(relator_texts, gens="a1 a2"):
    gens = tuple(gen(t[0], int(t[1:])) for t in gens.split())
    rels = tuple(
        Entry(f"r{i}", (), 0, 0, parse(t)) for i, t in enumerate(relator_texts)
    )
    return Presentation(genus=0, boundary=0, generators=gens, relators=rels)


def test_smith_diagonal_known_matrices():
    assert tuple(smith_diagonal([[2, 4], [6, 8]], 2)) == (2, 4)
    assert tuple(smith_diagonal([[1, 0], [0, 1]], 2)) == (1, 1)
    assert tuple(smith_diagonal([[0, 0], [0, 0]], 2)) == (), (
        "zero rows contribute no invariant factors"
    )
    assert tuple(smith_diagonal([[6]], 1)) == (6,)
    assert tuple(smith_diagonal([[2, 0], [0, 3]], 2)) == (1, 6), (
        "diagonal must be put in divisibility order"
    )


def _det(a):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(r) for r in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _determinantal_factors(m, ncols):
    """d_k = D_k / D_(k-1), D_k the gcd of all k x k minors."""
    out, prev = [], 1
    for k in range(1, min(len(m), ncols) + 1):
        dk = 0
        for rs in itertools.combinations(m, k):
            for cs in itertools.combinations(range(ncols), k):
                dk = gcd(dk, _det([[r[c] for c in cs] for r in rs]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return tuple(out)


def _is_chain(diag):
    return all(d > 0 for d in diag) and all(b % a == 0 for a, b in zip(diag, diag[1:]))


@st.composite
def _small_matrices(draw):
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-9, 9)
    return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr)), nc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_matrices())
def test_smith_diagonal_matches_determinantal_divisors(case):
    m, nc = case
    diag = smith_diagonal(m, nc)
    assert diag == _determinantal_factors(m, nc)
    assert _is_chain(diag)


@st.composite
def _relation_like_matrices(draw):
    # like a relation matrix: mostly 0 and +-1, whole zero rows, and a few
    # larger entries, so the unit pivots and the least-|d| rule both run
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from((0, 0, 0, 1, -1)), st.integers(-9, 9))
    row = st.one_of(st.just([0] * nc), st.lists(entry, min_size=nc, max_size=nc))
    return draw(st.lists(row, min_size=nr, max_size=nr)), nc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_relation_like_matrices())
def test_smith_diagonal_of_relation_like_matrices(case):
    m, nc = case
    diag = smith_diagonal(m, nc)
    assert diag == _determinantal_factors(m, nc)
    assert _is_chain(diag)


def test_smith_diagonal_bounds_its_entries():
    # The unbounded dense sweep let these entries reach 228 bits after
    # five pivots and did not finish in 20 s.
    m = [[0, 4, 3, 3, 1, 6, 6], [1, -9, -2, 6, 4, 0, 1], [4, 6, -2, -2, -9, 6, -9],
         [1, 0, 4, 1, -9, -2, 0], [-1, 6, 2, 0, 1, 0, 3], [0, 3, 0, 0, 2, 2, 0],
         [0, 0, 3, 0, 4, 0, -2]]
    t0 = time.perf_counter()
    diag = smith_diagonal(m, 7)
    dt = time.perf_counter() - t0
    assert diag == _determinantal_factors(m, 7)
    assert dt < 1.0, f"7x7 Smith normal form exceeded its 1s budget: {dt:.2f}s"


def test_smith_diagonal_dense_12x12_batch():
    rng = random.Random(12)
    mats = [[[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)] for _ in range(50)]
    t0 = time.perf_counter()
    diags = [smith_diagonal(m, 12) for m in mats]
    dt = time.perf_counter() - t0
    for m, diag in zip(mats, diags):
        assert _is_chain(diag)
        det = abs(_det(m))
        if det:
            prod = 1
            for d in diag:
                prod *= d
            assert len(diag) == 12 and prod == det
        else:
            assert len(diag) < 12
    assert dt < 2.0, f"50 dense 12x12 matrices exceeded their 2s budget: {dt:.2f}s"


def test_h1_toy_groups():
    assert h1(_toy(["a1^5"], "a1")).torsion == (5,)
    assert h1(_toy(["a1^5"], "a1")).free_rank == 0
    free2 = h1(_toy([], "a1 a2"))
    assert free2.free_rank == 2 and free2.torsion == ()
    # commutator relators do not move the abelianization
    comm = h1(_toy(["a1*a2*a1^-1*a2^-1"], "a1 a2"))
    assert comm.free_rank == 2 and comm.torsion == ()
    klein = h1(_toy(["a1*a1", "a2*a2", "a1*a2*a1^-1*a2^-1"], "a1 a2"))
    assert klein.free_rank == 0 and klein.torsion == (2, 2)


def test_h1_labels():
    assert h1(_toy([], "a1")).label() == "Z"
    assert h1(_toy(["a1*a1"], "a1")).label() == "Z/2"
    assert h1(_toy([], "a1 a2")).label() == "Z^2"
    assert h1(_toy(["a1"], "a1")).label() == "1"


def test_relation_matrix_shape():
    # rows come from lhs and rhs; they must match the reduced relator word
    for g, n in ((4, 1), (7, 0), (12, 1)):
        pres = nonorientable_mcg_presentation(g, n)
        m = relation_matrix(pres)
        assert len(m) == len(pres.relators)
        assert all(len(row) == len(pres.generators) for row in m)
        order = [letter(x) for x in pres.generators]
        for row, r in zip(m, pres.relators):
            assert row == exponent_matrix([(r.word, ())], order)[0], f"({g},{n}) {r.text()}"


def test_h1_invariant_under_relator_shuffle():
    base = nonorientable_mcg_presentation(5, 1)
    expected = h1(base)
    rng = random.Random(11)
    for _ in range(5):
        rels = list(base.relators)
        rng.shuffle(rels)
        shuffled = Presentation(
            genus=base.genus,
            boundary=base.boundary,
            generators=base.generators,
            relators=tuple(rels),
        )
        assert h1(shuffled) == expected


def test_h1_invariant_under_relator_inversion_and_conjugation():
    from dataclasses import replace

    from nmcg.words import free_reduce, inverse

    base = nonorientable_mcg_presentation(4, 1)
    expected = h1(base)
    conj = parse("a1*u2")
    rels = tuple(
        replace(r, lhs=free_reduce(conj + r.lhs + inverse(conj)))
        for r in base.relators
    )
    tweaked = Presentation(
        genus=base.genus,
        boundary=base.boundary,
        generators=base.generators,
        relators=rels,
    )
    assert h1(tweaked) == expected, "conjugated relators changed the abelianization"


def test_h1_of_shipped_presentations():
    # one-boundary groups, genus 3..8
    expected = {
        3: (2, 2),
        4: (2, 2, 2),
        5: (2, 2),
        6: (2, 2),
        7: (2,),
        8: (2,),
    }
    for g, torsion in expected.items():
        res = h1(nonorientable_mcg_presentation(g, 1))
        assert res.free_rank == 0 and res.torsion == torsion, (
            f"H1 at ({g},1) is {res.label()}"
        )


def test_h1_at_large_genus():
    # Z/2 from g = 7 on, with or without a boundary (Korkmaz 1998; Stukow 2010)
    t0 = time.perf_counter()
    for g, n in ((32, 1), (48, 0), (48, 1), (64, 0), (64, 1)):
        res = h1(nonorientable_mcg_presentation(g, n))
        assert (res.free_rank, res.torsion) == (0, (2,)), f"H1 at ({g},{n}) is {res.label()}"
    dt = time.perf_counter() - t0
    assert dt < 3.0, f"H1 at genus 32, 48 and 64 exceeded its 3s budget: {dt:.2f}s"
