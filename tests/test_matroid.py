import math
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import field_rank, spanning_subsets
from polygas.arrangement import (braid, coxeter_b, coxeter_d, custom, dowling,
                                 threshold)
from polygas.exact_linalg import exact_rank
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


# --------------------------------------------------------------------------
# the base search's echelon memo against plain Gaussian elimination
# --------------------------------------------------------------------------

def oracle_ranks(arr):
    return [field_rank([arr.normals[e] for e in mask_elements(m)])
            for m in range(1 << arr.size)]


def search_with_all_ranks(view):
    """Run the base search and, at its first rank call, query every
    subset's rank in ascending order while the echelon memo is live.
    Returns the bases, those ranks and the memo right after them."""
    rank_of = view.rank_of
    seen = {}

    def counted(mask):
        if not seen:
            seen["ranks"] = [rank_of(m) for m in range(1 << view.size)]
            seen["memo"] = dict(view._echelon)
        return rank_of(mask)

    view.rank_of = counted
    try:
        bases = tuple(view.bases())
    finally:
        del view.rank_of
    return bases, seen["ranks"], seen["memo"]


def search_calls(arr):
    """The masks of the search's rank calls, and the memo's size at each."""
    view = MatroidView(arr)
    calls, sizes = [], []
    rank_of = view.rank_of

    def counted(mask):
        calls.append(mask)
        sizes.append(len(view._echelon))
        return rank_of(mask)

    view.rank_of = counted
    view.bases()
    return calls, sizes


@pytest.mark.parametrize("arr", [braid(4), coxeter_b(3), coxeter_d(3),
                                 threshold(4), dowling(2, 3), dowling(3, 3)],
                         ids=["braid4", "coxeterB3", "coxeterD3", "threshold4",
                              "dowling2_3", "dowling3_3"])
def test_rank_of_equals_field_rank_during_and_after_the_search(arr):
    expected = oracle_ranks(arr)
    # during: every independent subset is met in ascending order after its
    # prefix, so each is answered from the memo
    view = MatroidView(arr)
    bases, ranks, memo = search_with_all_ranks(view)
    assert ranks == expected
    assert sorted(memo) == [m for m in range(1 << arr.size)
                            if expected[m] == popcount(m)]
    assert all(len(rows) == popcount(m) for m, rows in memo.items())
    assert view._echelon is None
    # after: the memo is gone, and ranks outside the search build their
    # prefix's echelon rows afresh
    after = MatroidView(arr)
    assert tuple(after.bases()) == bases
    assert after._echelon is None
    assert [after.rank_of(m) for m in range(1 << arr.size)] == expected


@pytest.mark.parametrize("arr", [coxeter_b(4), dowling(3, 3)],
                         ids=["coxeterB4", "dowling3_3"])
def test_bases_equal_brute_force(arr):
    brute = [mask_of(c) for c in combinations(range(arr.size), arr.ambient_dim)
             if field_rank([arr.normals[e] for e in c]) == arr.ambient_dim]
    assert list(MatroidView(arr).bases()) == sorted(brute)


def test_echelon_rows_stay_bounded_on_large_coprime_entries():
    # rank 6: six random rows with large entries, plus rows that are small
    # combinations of them and two with fractional entries
    rng = random.Random(7)
    free = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(6)] for _ in range(6)]
    rows = free + [
        [a - 3 * b for a, b in zip(free[0], free[1])],
        [2 * a + b - 5 * c for a, b, c in zip(free[2], free[3], free[4])],
        [Fraction(a, 7) + Fraction(b, 11) for a, b in zip(free[1], free[5])],
        [Fraction(rng.randint(-10 ** 6, 10 ** 6), 999983) for _ in range(6)]]
    arr = custom(rows)
    expected = oracle_ranks(arr)
    view = MatroidView(arr)
    bases, ranks, memo = search_with_all_ranks(view)
    assert ranks == expected
    assert len(bases) == sum(popcount(m) == 6 and r == 6
                             for m, r in enumerate(expected))
    # each residue is the primitive integer vector on its line, so its
    # entries are at most the Hadamard bound on the minors of its ring rows
    big = 0
    for mask, echelon in memo.items():
        bound = 1
        for e, (_, row) in zip(mask_elements(mask), echelon):
            bound *= sum(a * a for a in view._rows[e])
            big = max(big, max(a * a for a in row))
            assert max(a * a for a in row) <= bound
    assert big > 10 ** 24     # the memo held rows of depth > 1
    assert view._echelon is None
    # outside the search: a fresh view's ranks, and the fold over all rows
    fresh = MatroidView(arr)
    assert [fresh.rank_of(m) for m in range(1 << arr.size)] == expected
    assert exact_rank(rows) == 6


def test_base_search_keeps_the_rank_calls():
    # 3663: the rank_of calls of braid(6)'s search when each was a fresh
    # elimination; the memo changes what a call costs, not which are made
    calls, sizes = search_calls(braid(6))
    assert len(calls) == len(set(calls)) == 3663
    # the memo holds the search's path only: the empty set and a prefix
    # per level below the bases
    assert max(sizes) == 5


def test_concurrent_base_searches_run_once(monkeypatch):
    calls = []
    rank_of = MatroidView.rank_of
    monkeypatch.setattr(MatroidView, "rank_of",
                        lambda self, mask: calls.append(mask) or rank_of(self, mask))
    alone = tuple(MatroidView(braid(5)).bases())
    single = len(calls)
    calls.clear()
    view = MatroidView(braid(5))
    found = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: found.append(
            tuple(view.bases()))) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert len(found) == 6 and all(bases == alone for bases in found)
    assert len(calls) == single == 311
