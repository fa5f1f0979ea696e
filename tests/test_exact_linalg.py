import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import field_rank, fraction_inverse
from polygas.exact_linalg import (Cyclotomic, FieldMismatchError,
                                  SingularSystemError, cyclotomic_polynomial,
                                  exact_inverse, exact_rank, field_of,
                                  is_independent)

KNOWN_PHI = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


def test_cyclotomic_polynomials_match_known_tables():
    for k, coeffs in KNOWN_PHI.items():
        assert list(cyclotomic_polynomial(k)) == [Fraction(c) for c in coeffs]


def test_zeta_relations():
    z = Cyclotomic.zeta(3)
    assert z * z * z == 1
    assert 1 + z + z * z == 0
    z5 = Cyclotomic.zeta(5)
    assert sum(Cyclotomic.zeta(5, p) for p in range(5)) == 0


def test_cyclotomic_division():
    z = Cyclotomic.zeta(7, 3)
    w = Cyclotomic.zeta(7, 5) + 2
    assert (z / w) * w == z
    assert (1 / z) * z == 1


def test_cyclotomic_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(5)
    with pytest.raises(FieldMismatchError):
        exact_rank([[Cyclotomic.zeta(3), Cyclotomic.zeta(5)]])


def test_to_complex():
    z = Cyclotomic.zeta(3)
    assert abs((1 - z).to_complex()) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert Cyclotomic.zeta(4).to_complex() == pytest.approx(1j, abs=1e-12)


@settings(max_examples=200)
@given(st.integers(2, 8),
       st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6),
       st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6))
def test_cyclotomic_addition_exact(k, a, b):
    # (x + y) - y == x bit-exactly
    x = Cyclotomic(k, a)
    y = Cyclotomic(k, b)
    assert (x + y) - y == x
    assert x * y == y * x


def test_rank_identity():
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_cycle_rows():
    assert exact_rank([(1, -1, 0), (0, 1, -1), (1, 0, -1)]) == 2


def test_rank_cyclotomic_pair():
    z = Cyclotomic.zeta(3)
    assert exact_rank([[1, -z], [1, -(z * z)]]) == 2


def test_rank_empty():
    assert exact_rank([]) == 0


def test_rank_low_order_cyclotomic_matches_rational():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    for k in (1, 2):
        lifted = [[Cyclotomic.from_rational(k, v) for v in row] for row in rows]
        assert exact_rank(lifted) == exact_rank(rows) == 2


def test_rank_fractions():
    # second row is 3 times the first: rank 1
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert exact_rank(rows) == 1
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
    assert exact_rank(rows) == 2


def _entries(kind):
    """Matrix entries of one kind; small ranges so that dependent rows and
    zero pivots come up often."""
    if kind == "int":
        return st.integers(-9, 9)
    if kind == "fraction":
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    k = int(kind[len("cyclotomic"):])
    return st.builds(lambda c, p: c * Cyclotomic.zeta(k, p),
                     st.integers(-2, 2), st.integers(0, k - 1))


@st.composite
def _matrices(draw, kind, n=None):
    """A matrix of `kind` entries, n x n when n is given.  Up to two rows are
    replaced by linear combinations of rows, so dependent rows come up
    often."""
    width = n or draw(st.integers(1, 4))
    count = n or draw(st.integers(1, 6))
    entry = _entries(kind)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=count, max_size=count))
    index = st.integers(0, count - 1)
    for target, i, j, c in draw(st.lists(st.tuples(index, index, index, entry),
                                         max_size=2)):
        rows[target] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


@pytest.mark.parametrize("kind", ["int", "fraction", "cyclotomic3",
                                  "cyclotomic4", "cyclotomic5"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_matches_field_elimination(kind, data):
    rows = data.draw(_matrices(kind))
    assert exact_rank(rows) == field_rank(rows)


@settings(max_examples=80)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_monotone_and_bounded(rows):
    full = exact_rank(rows)
    assert full <= min(len(rows), 3)
    for cut in range(len(rows)):
        assert exact_rank(rows[:cut]) <= full


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=5, max_size=5))
def test_rank_submodular_exhaustive(rows):
    # rank(A u B) + rank(A n B) <= rank(A) + rank(B) over all subset pairs
    masks = list(range(1 << len(rows)))
    rank = {m: exact_rank([rows[i] for i in range(len(rows)) if m >> i & 1])
            for m in masks}
    for a, b in combinations(masks, 2):
        assert rank[a | b] + rank[a & b] <= rank[a] + rank[b]


def test_is_independent():
    assert is_independent([])
    assert is_independent([(1, -1), (1, 1)])
    assert not is_independent([(1, -1, 0), (0, 1, -1), (1, 0, -1)])


def test_exact_inverse_rational():
    inv = exact_inverse([[1, -1], [1, 1]])
    assert inv == [[Fraction(1, 2), Fraction(1, 2)],
                   [Fraction(-1, 2), Fraction(1, 2)]]


def test_exact_inverse_cyclotomic():
    z = Cyclotomic.zeta(3)
    mat = [[1, -1 * z.__class__.from_rational(3, 1)], [1, -z]]
    inv = exact_inverse(mat)
    # check A * inv == I in the field
    for i in range(2):
        for j in range(2):
            acc = Cyclotomic.from_rational(3, 0)
            for l in range(2):
                a = mat[i][l]
                a = a if isinstance(a, Cyclotomic) else Cyclotomic.from_rational(3, a)
                acc = acc + a * inv[l][j]
            assert acc == (1 if i == j else 0)


def test_exact_inverse_singular():
    with pytest.raises(SingularSystemError):
        exact_inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize("k", [3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_inverse_random_cyclotomic_matrices(k, data):
    rows = data.draw(_matrices(f"cyclotomic{k}", n=data.draw(st.integers(1, 3))))
    try:
        expected = fraction_inverse(rows)
    except ZeroDivisionError:
        with pytest.raises(SingularSystemError):
            exact_inverse(rows)
        return
    assert exact_inverse(rows) == expected


def test_field_of():
    assert field_of([1, Fraction(1, 2)]) == ("rational", None)
    assert field_of([Cyclotomic.zeta(3), 1]) == ("cyclotomic", 3)


def test_rank_large_entries_use_exact_fallback():
    # entries near 2^22, whose minors outgrow float precision; fraction-free
    # elimination on Python integers must still give the exact rank
    big = 1 << 22
    rows = [[big, big + 1, 0], [0, big, big + 1], [big, 2 * big + 1, big + 1],
            [big, big, big], [1, 2, 3]]
    assert exact_rank(rows) == 3
    # first three rows are dependent (row0 + row1 == row2)
    assert exact_rank(rows[:3]) == 2
