"""The compiled matroid data (nb and chi tables, base list, base
inverses over Q and Q(zeta_k), fundamental circuits and order-safe base
counts) against independent slow paths, and the guards around it."""

import random
import sys
import threading
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (chi_by_expansion, circuit_by_rank, fraction_inverse,
                     integer_inverse, safe_count_by_exchange, spanning_subsets)
from polygas.arrangement import (ArrangementError, braid, coxeter_b, coxeter_d,
                                 custom, dowling, threshold, widom_rowlinson)
from polygas.dimred import check_dr
from polygas.exact_linalg import SingularSystemError, _ring_rows, exact_inverse
from polygas.matroid import (MAX_TABLE_SIZE, LinearOrder, MatroidError,
                             MatroidView, mask_elements)
from polygas.mayer import pressure_coefficient
from polygas.polymer import sample_for_base

SMALL_FAMILIES = {
    "braid2": braid(2), "braid3": braid(3), "braid4": braid(4),
    "braid5": braid(5), "coxeterB2": coxeter_b(2), "coxeterB3": coxeter_b(3),
    "coxeterD2": coxeter_d(2), "coxeterD3": coxeter_d(3),
    "threshold3": threshold(3), "threshold4": threshold(4),
    "dowling2_3": dowling(2, 3), "dowling3_3": dowling(3, 3),
    "widom_rowlinson22": widom_rowlinson([2, 2]),
    "widom_rowlinson23": widom_rowlinson([2, 3]),
}

RATIONAL_FAMILIES = {label: arr for label, arr in SMALL_FAMILIES.items()
                     if arr.field_kind == "rational"}

CYCLOTOMIC_FAMILIES = {"dowling2_3": dowling(2, 3), "dowling3_3": dowling(3, 3),
                       "dowling2_4": dowling(2, 4)}

README_CUSTOM = custom([["1", "-1/2"], ["0", "1"]])


@pytest.mark.parametrize("label", sorted(SMALL_FAMILIES))
def test_tables_match_rank_and_subset_expansion(label):
    arr = SMALL_FAMILIES[label]
    assert arr.size <= 10
    view = MatroidView(arr)
    oracle = MatroidView(arr)      # rank calls only, no compiled data
    n = arr.ambient_dim
    rng = random.Random(label)
    order = LinearOrder.shuffled(arr.size, rng)
    assert view.chi_table.shape == view.nb_table.shape == (1 << arr.size,)
    for mask in range(1 << arr.size):
        spanning = oracle.rank_of(mask) == n
        assert bool(view.nb_table[mask] > 0) == spanning
        chi = chi_by_expansion(oracle, mask)
        assert view.chi_table[mask] == chi
        assert view.chi_if_spanning(mask) == chi
        if spanning:
            assert view.chi_at_zero(mask) == chi
            safe = safe_count_by_exchange(oracle, mask, order)
            assert safe == (-1) ** n * chi
            assert view.safe_base_count(mask, order) == safe
        else:
            assert chi == 0
            with pytest.raises(MatroidError):
                view.chi_at_zero(mask)


@pytest.mark.parametrize("label", sorted(SMALL_FAMILIES))
def test_bases_of_equals_full_rank_subsets_of_size_rank(label):
    view = MatroidView(SMALL_FAMILIES[label])
    oracle = MatroidView(SMALL_FAMILIES[label])
    n = view.full_rank
    for mask in spanning_subsets(view):
        expected = sorted(sum(1 << e for e in elems)
                          for elems in combinations(mask_elements(mask), n)
                          if oracle.rank_of(sum(1 << e for e in elems)) == n)
        assert view.bases_of(mask) == expected


NB_FAMILIES = {label: SMALL_FAMILIES[label]
               for label in ("braid2", "braid3", "braid4", "braid5",
                             "coxeterB2", "coxeterB3", "dowling2_3")}


@pytest.mark.parametrize("label", sorted(NB_FAMILIES))
def test_nb_table_counts_the_bases_inside_each_mask(label):
    view = MatroidView(NB_FAMILIES[label])
    nb = view.nb_table
    assert nb.dtype == np.int32 and not nb.flags.writeable
    for mask in range(1 << view.size):
        try:
            expected = len(view.bases_of(mask))
        except MatroidError:
            expected = 0
        assert nb[mask] == expected


@pytest.mark.parametrize("label", sorted(SMALL_FAMILIES))
def test_base_abs_det_matches_float_determinant(label):
    arr = SMALL_FAMILIES[label]
    view = MatroidView(arr)
    for base_mask, abs_det in zip(view.bases(), view.base_table.abs_det):
        det = np.linalg.det(arr.coeff[list(mask_elements(base_mask))])
        assert abs_det == pytest.approx(abs(det), rel=1e-12)


def test_mask_range_checked():
    view = MatroidView(braid(3))
    for bad in (-1, 1 << 3):
        for query in (view.chi_at_zero, view.chi_if_spanning, view.bases_of,
                      view.rank_of):
            with pytest.raises(MatroidError):
                query(bad)
        with pytest.raises(MatroidError):
            view.safe_count_if_spanning(bad, LinearOrder.default(3))
        with pytest.raises(MatroidError, match="outside the ground set"):
            view.safe_base_counts(np.array([0b11, bad]), LinearOrder.default(3))


@pytest.mark.parametrize("label", sorted(SMALL_FAMILIES))
def test_circuit_table_matches_rank_circuits(label):
    view = MatroidView(SMALL_FAMILIES[label])
    oracle = MatroidView(SMALL_FAMILIES[label])
    circuits = view.circuit_table
    bases = list(view.bases())
    assert circuits.dtype == np.int64 and not circuits.flags.writeable
    assert circuits.shape == (len(bases), view.size)
    for base, row in zip(bases, circuits.tolist()):
        for e in range(view.size):
            expected = 0 if base >> e & 1 else circuit_by_rank(oracle, base, e)
            assert row[e] == expected
            if expected:
                assert view.fundamental_circuit(base, e) == expected


@pytest.mark.parametrize("label", sorted(SMALL_FAMILIES))
def test_safe_counts_match_exchange_oracle_under_default_order(label):
    view = MatroidView(SMALL_FAMILIES[label])
    oracle = MatroidView(SMALL_FAMILIES[label])
    order = LinearOrder.default(view.size)
    masks = [mask for mask in range(1 << view.size)
             if oracle.rank_of(mask) == view.full_rank]
    safe, inside = view.safe_base_counts(np.array(masks), order)
    for mask, count, nb in zip(masks, safe.tolist(), inside.tolist()):
        expected = safe_count_by_exchange(oracle, mask, order)
        assert view.safe_base_count(mask, order) == count == expected
        assert nb == len(view.bases_of(mask))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SMALL_FAMILIES)), st.randoms(use_true_random=False))
def test_safe_counts_match_exchange_oracle_under_shuffled_orders(label, rng):
    view = MatroidView(SMALL_FAMILIES[label])
    order = LinearOrder.shuffled(view.size, rng)
    masks = np.arange(1 << view.size)
    safe, inside = view.safe_base_counts(masks, order)
    for mask in masks.tolist():
        spans = view.rank_of(mask) == view.full_rank
        if spans:
            expected = safe_count_by_exchange(view, mask, order)
            assert view.safe_base_count(mask, order) == expected
        else:
            expected = 0
            with pytest.raises(MatroidError, match="not spanning"):
                view.safe_base_count(mask, order)
        assert safe[mask] == view.safe_count_if_spanning(mask, order) == expected
        assert (inside[mask] > 0) == spans


def test_safe_counts_above_the_table_cap():
    # 30 lines through the origin of R^2, any two independent: the uniform
    # matroid U(2, 30), whose chi(t) = t^2 - 30 t + 29
    view = MatroidView(custom([[1, k] for k in range(30)]))
    assert view.size == 30 > MAX_TABLE_SIZE
    rng = random.Random(30)
    orders = [LinearOrder.default(30), LinearOrder(reversed(range(30)))]
    orders += [LinearOrder.shuffled(30, rng) for _ in range(3)]
    for order in orders:
        assert view.safe_base_count(order=order) == 29
    assert len(view.circuit_table) == 435
    assert view.fundamental_circuit(0b11, 2) == 0b111
    # the counts compiled the base list and the circuits, no subset table
    assert {"bases", "circuits"} <= view._store.keys()
    assert "tables" not in view._store
    with pytest.raises(MatroidError, match="at most 24 hyperplanes"):
        view.chi_at_zero()
    # base and circuit masks are int64: refused above 63 hyperplanes, before
    # any base enumeration
    wide = MatroidView(custom([[1, k] for k in range(64)]))
    with pytest.raises(MatroidError, match="at most 63 hyperplanes"):
        wide.safe_base_count()
    with pytest.raises(MatroidError, match="at most 63 hyperplanes"):
        wide.bases()
    assert wide._store == {}


@pytest.mark.parametrize("mask", [-1, -0b101, 0b1000, 0b1011, 1 << 63,
                                  (1 << 63) | 0b011, 1 << 64])
def test_base_queries_refuse_masks_outside_the_ground_set(mask):
    # braid(3): three hyperplanes, any two of them a base
    view = MatroidView(braid(3))
    order = LinearOrder.default(3)
    rng = np.random.default_rng(0)
    with pytest.raises(MatroidError):
        view.is_safe(mask, order)
    with pytest.raises(MatroidError):
        view.is_safe(0b011, order, within=mask)
    with pytest.raises(MatroidError):
        view.fundamental_circuit(mask, 2)
    with pytest.raises(MatroidError):
        sample_for_base(view, mask, 2, rng)
    with pytest.raises(MatroidError):
        view.bases_of(mask)
    assert view.is_safe(0b011, order)


def test_concurrent_readers_share_one_circuit_compile(monkeypatch):
    compiles = []
    original = MatroidView._compile_circuits

    def counting(self):
        compiles.append(self)
        return original(self)

    monkeypatch.setattr(MatroidView, "_compile_circuits", counting)
    view = MatroidView(braid(5))
    view.bases()
    counts = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: counts.append(
            view.safe_base_count())) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert len(compiles) == 1 and counts == [24] * 6


def _assert_inverse_matches_oracle(view, index):
    base_mask = int(view.base_table.masks[index])
    rows = [view.arrangement.normals[e] for e in mask_elements(base_mask)]
    expected = fraction_inverse(rows)
    assert exact_inverse(rows) == expected
    num, den = integer_inverse(*_ring_rows(rows))
    assert den > 0
    assert [[Fraction(v, den) for v in row] for row in num] == expected
    table = view.base_table
    assert table.inv[index].tolist() == [[float(v) for v in row]
                                         for row in expected]
    assert table.row_abs_sums[index].tolist() == [
        float(sum(abs(v) for v in row)) for row in expected]


@pytest.mark.parametrize("label", sorted(RATIONAL_FAMILIES))
def test_integer_base_inverses_equal_fraction_gauss_jordan(label):
    view = MatroidView(RATIONAL_FAMILIES[label])
    for index in range(len(list(view.bases()))):
        _assert_inverse_matches_oracle(view, index)


@pytest.mark.parametrize("label", sorted(CYCLOTOMIC_FAMILIES))
def test_cyclotomic_base_inverses_equal_gauss_jordan(label):
    view = MatroidView(CYCLOTOMIC_FAMILIES[label])
    table = view.base_table
    for base_mask, inv, sums in zip(view.bases(), table.inv,
                                    table.row_abs_sums):
        rows = [view.arrangement.normals[e] for e in mask_elements(base_mask)]
        expected = fraction_inverse(rows)
        assert exact_inverse(rows) == expected
        assert inv.tolist() == [[v.to_complex() for v in row]
                                for row in expected]
        assert sums.tolist() == [sum(abs(v.to_complex()) for v in row)
                                 for row in expected]


def test_integer_inverse_undoes_row_scaling():
    # rows with denominators: the integerized rows are scaled by 2 and 1
    view = MatroidView(README_CUSTOM)
    assert list(view.bases()) == [0b11]
    _assert_inverse_matches_oracle(view, 0)
    table = view.base_table
    assert table.inv[0].tolist() == [[1.0, 0.5], [0.0, 1.0]]
    assert table.row_abs_sums[0].tolist() == [1.5, 1.0]
    assert table.abs_det[0] == 1.0       # the integerized rows have det 2


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_integer_inverse_random_rational_matrices(rows):
    scaled = _ring_rows(rows)
    try:
        expected = fraction_inverse(rows)
    except ZeroDivisionError:
        with pytest.raises(SingularSystemError):
            integer_inverse(*scaled)
        return
    num, den = integer_inverse(*scaled)
    assert [[Fraction(v, den) for v in row] for row in num] == expected


def test_table_refused_above_the_limit():
    assert MAX_TABLE_SIZE == 24
    arr = braid(8)                                   # 28 hyperplanes
    view = MatroidView(arr)
    with pytest.raises(MatroidError, match="at most 24 hyperplanes"):
        view.chi_at_zero()
    with pytest.raises(MatroidError, match="at most 24 hyperplanes"):
        pressure_coefficient(view, 1, 10, 0)
    assert view._store == {}       # refused before any base enumeration
    assert view.rank_of(view.ground_mask) == 7     # rank queries still work


def test_check_dr_builds_one_view(monkeypatch):
    built = []
    original = MatroidView.__init__

    def counting_init(self, arrangement):
        built.append(arrangement)
        original(self, arrangement)

    monkeypatch.setattr(MatroidView, "__init__", counting_init)
    check_dr(braid(3), 1, 2000, 0)
    assert len(built) == 1


def test_gamma_masks_refuse_more_bits_than_int64_holds():
    arr = braid(12)                                  # 66 hyperplanes
    with pytest.raises(ArrangementError, match="int64"):
        arr.gamma_masks(np.zeros((1, 11, 1)))
    # 63 hyperplanes still fit: every bit set at the origin
    wide = custom([[1, k] for k in range(63)])
    assert wide.gamma_masks(np.zeros((1, 2, 1)))[0] == (1 << 63) - 1
