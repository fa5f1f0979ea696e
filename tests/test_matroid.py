import math
import random
from itertools import combinations

import pytest

from oracles import spanning_subsets
from polygas.arrangement import braid, coxeter_b, coxeter_d, dowling, threshold
from polygas.matroid import LinearOrder, MatroidError, MatroidView, mask_elements, popcount


def mask_of(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def test_rank_examples():
    v = MatroidView(braid(3))
    assert v.rank_of(0) == 0
    assert v.rank_of(0b111) == 2
    v2 = MatroidView(coxeter_d(2))
    assert v2.rank_of(0b11) == 2


def test_bases_braid3():
    v = MatroidView(braid(3))
    bases = list(v.bases())
    assert bases == [0b011, 0b101, 0b110]


def test_bases_coxeter_d2():
    v = MatroidView(coxeter_d(2))
    assert list(v.bases()) == [0b11]


def test_bases_braid4_cayley():
    v = MatroidView(braid(4))
    assert len(list(v.bases())) == 16


def test_bases_cayley_counts():
    for m in range(2, 7):
        v = MatroidView(braid(m))
        assert len(list(v.bases())) == m ** (m - 2)


def test_bases_ascending_and_unique():
    v = MatroidView(coxeter_b(3))
    bases = list(v.bases())
    assert bases == sorted(set(bases))
    for b in bases:
        assert popcount(b) == 3 and v.rank_of(b) == 3


def test_spanning_subsets_braid():
    assert list(spanning_subsets(MatroidView(braid(2)))) == [0b1]
    v = MatroidView(braid(3))
    assert list(spanning_subsets(v)) == [0b011, 0b101, 0b110, 0b111]
    assert list(spanning_subsets(MatroidView(coxeter_d(2)))) == [0b11]


def test_fundamental_circuit_triangle():
    v = MatroidView(braid(3))
    assert v.fundamental_circuit(0b011, 2) == 0b111


def test_fundamental_circuit_star_base():
    arr = braid(4)
    v = MatroidView(arr)
    star = mask_of([arr.labels.index(l) for l in ("x1-x2", "x1-x3", "x1-x4")])
    e23 = arr.labels.index("x2-x3")
    circ = v.fundamental_circuit(star, e23)
    expected = mask_of([arr.labels.index(l) for l in ("x1-x2", "x1-x3", "x2-x3")])
    assert circ == expected


def test_fundamental_circuit_coxeter_b2():
    arr = coxeter_b(2)
    v = MatroidView(arr)
    base = mask_of([arr.labels.index("x1"), arr.labels.index("x2")])
    e = arr.labels.index("x1-x2")
    circ = v.fundamental_circuit(base, e)
    assert circ == base | (1 << e)


def test_fundamental_circuit_errors():
    v = MatroidView(braid(3))
    with pytest.raises(MatroidError):
        v.fundamental_circuit(0b111, 0)  # not a base
    with pytest.raises(MatroidError):
        v.fundamental_circuit(0b011, 0)  # element inside the base


def test_fundamental_circuit_is_minimal_dependent():
    for arr in (braid(4), coxeter_b(2), coxeter_d(3), dowling(2, 3)):
        v = MatroidView(arr)
        for base in v.bases():
            for e in mask_elements(v.ground_mask & ~base):
                circ = v.fundamental_circuit(base, e)
                assert circ >> e & 1
                assert v.rank_of(circ) < popcount(circ)  # dependent
                for drop in mask_elements(circ):
                    sub = circ & ~(1 << drop)
                    assert v.rank_of(sub) == popcount(sub)  # independent


def test_is_safe_examples():
    v = MatroidView(braid(3))
    order = LinearOrder([0, 1, 2])  # construction order: 12 < 13 < 23
    assert v.is_safe(0b011, order) is True
    assert v.is_safe(0b110, order) is False
    # a base equal to the whole ground set has no external elements
    v2 = MatroidView(coxeter_d(2))
    assert v2.is_safe(0b11, LinearOrder([0, 1])) is True


def test_is_safe_refuses_a_short_order():
    v = MatroidView(braid(4))
    with pytest.raises(MatroidError, match="permutation"):
        v.is_safe(0b111, LinearOrder(range(3)))


def test_is_safe_refuses_a_base_outside_its_scope():
    v = MatroidView(braid(4))
    order = LinearOrder.default(v.size)
    assert v.is_safe(0b111, order, within=0b111)
    with pytest.raises(MatroidError, match="not inside"):
        v.is_safe(0b111, order, within=0b110000)
    with pytest.raises(MatroidError, match="ground set"):
        v.is_safe(0b111, order, within=1 << 6 | 0b111)


def test_fundamental_circuit_refuses_elements_outside_the_ground_set():
    v = MatroidView(braid(3))
    for e in (3, -1):
        with pytest.raises(MatroidError, match="outside the ground set"):
            v.fundamental_circuit(0b011, e)


def test_safe_base_count_refuses_short_order():
    v = MatroidView(braid(4))
    with pytest.raises(MatroidError, match="permutation"):
        v.safe_base_count(order=LinearOrder([0, 1, 2]))


def test_safe_base_count_refuses_order_beyond_ground_set():
    v = MatroidView(braid(4))
    with pytest.raises(MatroidError, match="permutation"):
        v.safe_base_count(order=LinearOrder(range(10)))
    with pytest.raises(MatroidError, match="permutation"):
        v.safe_count_if_spanning(0b1, LinearOrder(range(10)))


def test_safe_checks_read_the_base_set():
    v = MatroidView(braid(4))
    v.bases()
    calls = []
    rank_of = v.rank_of
    v.rank_of = lambda mask: calls.append(mask) or rank_of(mask)
    assert v.safe_base_count() == 6
    for base in v.bases():
        v.fundamental_circuit(base, next(mask_elements(v.ground_mask & ~base)))
    assert calls == []
    for bad in (0b11, 1 << 6, -1):
        with pytest.raises(MatroidError, match="not a base"):
            v.is_safe(bad, LinearOrder.default(v.size))
        with pytest.raises(MatroidError, match="not a base"):
            v.fundamental_circuit(bad, 0)


def test_chi_examples():
    assert MatroidView(braid(2)).chi_at_zero() == -1
    assert MatroidView(braid(3)).chi_at_zero() == 2
    assert MatroidView(coxeter_d(2)).chi_at_zero() == 1
    assert MatroidView(coxeter_b(2)).chi_at_zero() == 3


def test_chi_braid_factorial():
    for m in range(2, 7):
        assert MatroidView(braid(m)).chi_at_zero() == \
            (-1) ** (m - 1) * math.factorial(m - 1)


def test_chi_requires_spanning():
    v = MatroidView(braid(3))
    with pytest.raises(MatroidError):
        v.chi_at_zero(0b001)


def test_safe_base_count_examples():
    assert MatroidView(braid(3)).safe_base_count() == 2
    assert MatroidView(braid(2)).safe_base_count() == 1
    assert MatroidView(braid(4)).safe_base_count() == 6


def test_safe_count_order_independent():
    rng = random.Random(0)
    shipped = [braid(3), braid(4), coxeter_d(2), coxeter_d(3), coxeter_b(2),
               threshold(3), dowling(2, 3)]
    for arr in shipped:
        v = MatroidView(arr)
        n = arr.ambient_dim
        for spanning in spanning_subsets(v):
            chi = v.chi_at_zero(spanning)
            for _ in range(20):
                order = LinearOrder.shuffled(arr.size, rng)
                assert v.safe_base_count(spanning, order) == (-1) ** n * chi


def test_base_exchange_exhaustive():
    # for |E| <= 8: any a in A \ B can be replaced by some b in B \ A
    for arr in (braid(4), coxeter_d(2), coxeter_b(2), threshold(3)):
        v = MatroidView(arr)
        bases = list(v.bases())
        assert len(bases[0].bit_length() and bases) > 0
        for a_mask, b_mask in combinations(bases, 2):
            for a in mask_elements(a_mask & ~b_mask):
                ok = any(v.is_base((a_mask & ~(1 << a)) | (1 << b))
                         for b in mask_elements(b_mask & ~a_mask))
                assert ok


def test_chi_cross_formula_braid5():
    v = MatroidView(braid(5))
    chi = v.chi_at_zero()
    assert v.safe_base_count() == (-1) ** 4 * chi == 24
