import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (FractionCyclotomic, field_rank,
                     fraction_cyclotomic_polynomial, fraction_inverse,
                     leibniz_det)
from polygas.arrangement import _build, dowling
from polygas.exact_linalg import (Cyclotomic, FieldMismatchError,
                                  SingularSystemError, _conjugate_product,
                                  _ring_rows, cyclotomic_inverses,
                                  cyclotomic_polynomial, exact_inverse,
                                  exact_rank, field_of, is_independent)
from polygas.matroid import MatroidView, mask_elements

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
    assert exact_rank([[], []]) == 0


def test_rank_refuses_ragged_rows():
    # an empty first row must not hide the ragged rows behind it
    for rows in ([[], [1, 2]], [[1, 2], []], [[1, 2], [1, 2, 3]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            exact_rank(rows)


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


# --------------------------------------------------------------------------
# integer arithmetic in Z[zeta_k] against the Q[x]/Phi_k slow path
# --------------------------------------------------------------------------

ORDERS = [3, 4, 5, 7, 8, 9, 12, 15]


def test_integer_cyclotomic_polynomials_match_fraction_division():
    for k in range(1, 41):
        phi = cyclotomic_polynomial(k)
        assert all(type(c) is int for c in phi)
        assert list(phi) == list(fraction_cyclotomic_polynomial(k))


def _elements(k):
    """Elements of Q(zeta_k) given by up to k + 2 Fraction coefficients,
    so that reduction modulo Phi_k and exponents past k come up."""
    return st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                    max_size=k + 2).map(lambda cs: (Cyclotomic(k, cs),
                                                    FractionCyclotomic(k, cs)))


@pytest.mark.parametrize("k", ORDERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclotomic_arithmetic_matches_fraction_slow_path(k, data):
    (x, slow_x), (y, slow_y) = data.draw(_elements(k)), data.draw(_elements(k))
    assert x == slow_x and y == slow_y
    assert x.coeffs == slow_x.coeffs
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x + y == slow_x + slow_y
    assert x - y == slow_x - slow_y
    assert x * y == slow_x * slow_y
    assert -x == -slow_x
    assert x.to_complex() == slow_x.to_complex()
    assert (x * y).to_complex() == (slow_x * slow_y).to_complex()
    c = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=5))
    assert x * c == slow_x * c and x + c == slow_x + c
    if y:
        assert y.inverse() == slow_y.inverse()
        assert x / y == slow_x / slow_y
        assert (x / y).to_complex() == (slow_x / slow_y).to_complex()
        assert c / y == c / slow_y
    if c:
        assert x / c == slow_x / c


@pytest.mark.parametrize("k", ORDERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_norm_is_a_positive_integer_and_p_times_p_star(k, data):
    p = data.draw(_elements(k))[0].numerator       # an element of Z[zeta_k]
    if not p:
        return
    star, norm = _conjugate_product(p)
    assert type(norm) is int and norm > 0
    assert star.den == 1 and all(type(c) is int for c in star.num)
    assert p * star == norm


def test_rational_values_hash_like_the_rational():
    two, half = Cyclotomic(3, [2]), Cyclotomic(4, [Fraction(1, 2)])
    assert two == 2 and hash(two) == hash(2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(Cyclotomic(5, [0, 0, 0, 0, 0])) == hash(0)
    assert {two, 2, half, Fraction(1, 2)} == {2, Fraction(1, 2)}
    assert len({two, 2}) == 1
    table = {2: "two", Fraction(1, 2): "half", Cyclotomic.zeta(3): "zeta"}
    assert table[two] == "two" and table[half] == "half"
    assert table[Cyclotomic(3, [0, 1])] == "zeta"
    assert {two: 1}[2] == 1
    # rational values of different orders are the same rational
    assert Cyclotomic(3, [2]) == Cyclotomic(4, [2])
    assert len({two, half, 2, Cyclotomic(5, [2])}) == 2
    with pytest.raises(FieldMismatchError):
        Cyclotomic.zeta(3) == Cyclotomic.zeta(5)


@pytest.mark.parametrize("value", [0.1, 1.0, "1", 1j, np.float64(0.5)])
def test_inexact_coefficients_are_refused(value):
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        Cyclotomic(3, [1, value])
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        Cyclotomic.from_rational(3, value)


DOWLINGS = {(n, k): dowling(n, k) for n, k in [(2, 3), (3, 3), (2, 4), (2, 5)]}


@pytest.mark.parametrize("nk", sorted(DOWLINGS), ids="dowling{0[0]}_{0[1]}".format)
def test_dowling_ranks_and_base_inverses_match_field_elimination(nk):
    arr = DOWLINGS[nk]
    n = arr.ambient_dim
    for elems in combinations(range(arr.size), n):
        rows = [arr.normals[e] for e in elems]
        assert exact_rank(rows) == field_rank(rows)
    view = MatroidView(arr)
    bases = [list(mask_elements(b)) for b in view.bases()]
    ring, scales = _ring_rows(arr.normals)
    mats = np.array(ring, dtype=object)[bases]
    inv, det = cyclotomic_inverses(mats, np.array(scales, dtype=object)[bases])
    for elems, m, d in zip(bases, inv, det):
        rows = [arr.normals[e] for e in elems]
        assert m.tolist() == fraction_inverse(rows)
        assert d in (leibniz_det(rows), -leibniz_det(rows))


def _fractional_cyclotomic(k):
    """Entries of Q(zeta_k) with non-integer coefficients, small enough that
    dependent rows come up."""
    return st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                    min_size=1, max_size=3).map(lambda cs: Cyclotomic(k, cs))


@pytest.mark.parametrize("k", [3, 4, 5, 12])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scaled_cyclotomic_rows_match_field_elimination(k, data):
    n = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(_fractional_cyclotomic(k), min_size=n,
                                       max_size=n),
                              min_size=count, max_size=count))
    assert exact_rank(rows) == field_rank(rows)
    rows = rows[:n] if count >= n else rows + rows[:n - count]
    ring, scales = _ring_rows(rows)
    assert all(v.den == 1 for row in ring for v in row)
    try:
        expected = fraction_inverse(rows)
    except ZeroDivisionError:
        with pytest.raises(SingularSystemError):
            cyclotomic_inverses([ring], [scales])
        return
    inv, det = cyclotomic_inverses([ring], [scales])
    assert inv[0].tolist() == expected == exact_inverse(rows)
    assert det[0] in (leibniz_det(rows), -leibniz_det(rows))


def test_base_table_undoes_cyclotomic_row_scales():
    # dowling(2, 3) with its rows scaled by 1/2, 2/3 and 3/5: row scales 2,
    # 3 and 5 on the ring rows
    arr = dowling(2, 3)
    normals = [[v * Fraction(s) for v in row] for row, s in
               zip(arr.normals, [Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)])]
    scaled = _build(normals, arr.labels, None, "dowling", ())
    assert _ring_rows(scaled.normals)[1] == [2, 3, 5]
    view = MatroidView(scaled)
    table = view.base_table
    for b, inv, sums, abs_det in zip(view.bases(), table.inv,
                                     table.row_abs_sums, table.abs_det):
        rows = [normals[e] for e in mask_elements(b)]
        expected = fraction_inverse(rows)
        assert inv.tolist() == [[v.to_complex() for v in row] for row in expected]
        assert sums.tolist() == [sum(abs(v.to_complex()) for v in row)
                                 for row in expected]
        assert abs_det == abs(leibniz_det(rows).to_complex())
