"""The batched kernels against the per-row and per-matrix paths they
replaced, compared with ==: functional values as one GEMM per block and the
masks from them, the guide-table base pick of the tube kernel, the batched
fraction-free base inverses, and the base table that holds them."""

import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_inverse
from polygas import matroid, mayer
from polygas.arrangement import (braid, coxeter_b, coxeter_d, custom, dowling,
                                 threshold, widom_rowlinson)
from polygas.exact_linalg import (Cyclotomic, SingularSystemError, _ring_rows,
                                  cyclotomic_inverses, integer_inverses)
from polygas.dimred import check_dr
from polygas.matroid import (LinearOrder, MatroidError, MatroidView,
                             mask_elements)
from polygas.polymer import (dump_samples_csv, planar_invariance_check,
                             sample_for_base, volume_mc)

# --------------------------------------------------------------------------
# functional values and masks
# --------------------------------------------------------------------------

REAL = {"braid3": braid(3), "braid4": braid(4), "braid6": braid(6),
        "coxeterB3": coxeter_b(3), "coxeterD3": coxeter_d(3),
        "threshold4": threshold(4),
        "widom_rowlinson23": widom_rowlinson([2, 3])}


def old_masks(arr, x):
    """gamma_masks as it was: per-configuration products and a reduction
    over the trailing axis."""
    vals = arr.coeff @ x
    within = (np.sum((vals * vals.conj()).real, axis=2)
              <= np.asarray(arr.radii) ** 2)
    return within @ (1 << np.arange(arr.size, dtype=np.int64))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("label", sorted(REAL))
def test_values_and_masks_bit_identical_on_real_arrangements(label, d):
    # radii near the typical |h_e(x)| put many values close to the boundary
    arr = REAL[label]
    arr = arr.with_radii([1.0 + 0.25 * e for e in range(arr.size)])
    x = np.random.default_rng(d).standard_normal((8192, arr.ambient_dim, d))
    vals = arr.values(x)
    assert vals.shape == (8192, arr.size, d)
    assert np.array_equal(vals, arr.coeff @ x)
    assert np.array_equal(arr.gamma_masks(x), old_masks(arr, x))


@pytest.mark.parametrize("d", [2, 4])
def test_cyclotomic_masks_equal_on_a_fixed_batch(d):
    # one zgemm may change values in the last bits, so a mask can differ
    # only where a squared norm lies within rounding of R_e^2
    arr = dowling(2, 3)
    rng = np.random.default_rng(7)
    shape = (65536, arr.ambient_dim, d // 2)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_allclose(arr.values(x), arr.coeff @ x, rtol=1e-14,
                               atol=1e-14)
    assert np.array_equal(arr.gamma_masks(x), old_masks(arr, x))


# --------------------------------------------------------------------------
# guide-table base pick
# --------------------------------------------------------------------------

COXETER_B3_DETS = MatroidView(coxeter_b(3)).base_table.abs_det


@st.composite
def cdfs(draw):
    kind = draw(st.sampled_from(["one", "equal", "coxeterB3", "dominant"]))
    if kind == "one":
        vol = np.ones(1)
    elif kind == "equal":
        vol = np.ones(1296)
    elif kind == "coxeterB3":
        vol = COXETER_B3_DETS ** -float(draw(st.integers(1, 6)))
    else:
        vol = np.full(1001, 1e-9)
        vol[draw(st.integers(0, 1000))] = 1.0
    cdf = np.cumsum(vol) / vol.sum()
    # a last entry below 1, as float rounding can leave it
    return cdf * draw(st.sampled_from([1.0, 1.0 - 2.0 ** -40, 0.75]))


@settings(max_examples=80, deadline=None)
@given(cdfs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
       st.integers(0, 2 ** 32))
def test_guide_pick_equals_binary_search(cdf, floats, seed):
    # u on every cdf value and its neighbours, at and past cdf[-1], and
    # uniform draws
    u = np.concatenate([
        floats, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.linspace(cdf[-1], 1.0, 64, endpoint=False),
        np.random.default_rng(seed).random(4096)])
    u = u[u < 1.0]
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
    assert np.array_equal(mayer._base_picker(cdf)(u), expected)


# --------------------------------------------------------------------------
# batched base inverses
# --------------------------------------------------------------------------

FAMILIES = {
    "braid3": braid(3), "braid4": braid(4), "braid5": braid(5),
    "braid6": braid(6), "coxeterB3": coxeter_b(3), "coxeterB4": coxeter_b(4),
    "coxeterD3": coxeter_d(3), "dowling2_3": dowling(2, 3),
    "dowling3_3": dowling(3, 3), "dowling2_4": dowling(2, 4),
}


def base_rows(arr, base):
    return [arr.normals[e] for e in mask_elements(base)]


def ring_batch(arr, bases):
    """The ring rows and scales of each base, as the view gathers them."""
    rows, scales = _ring_rows(arr.normals)
    elems = np.array([list(mask_elements(b)) for b in bases])
    return (np.array(rows, dtype=object)[elems],
            np.array(scales, dtype=object)[elems])


@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_batched_inverses_equal_fraction_gauss_jordan(label):
    arr = FAMILIES[label]
    view = MatroidView(arr)
    bases = list(view.bases())
    expected = [fraction_inverse(base_rows(arr, b)) for b in bases]
    mats, scales = ring_batch(arr, bases)
    if arr.field_kind == "cyclotomic":
        exact, _ = cyclotomic_inverses(mats, scales)
        assert [m.tolist() for m in exact] == expected
        floats = [[[v.to_complex() for v in row] for row in m]
                  for m in expected]
        sums = [[sum(abs(v.to_complex()) for v in row) for row in m]
                for m in expected]
    else:
        num, den = integer_inverses(mats, scales)
        assert num.dtype == np.int64 and (den > 0).all()
        assert [[[Fraction(int(v), int(d)) for v in row] for row in m]
                for m, d in zip(num, den)] == expected
        floats = [[[float(v) for v in row] for row in m] for m in expected]
        sums = [[float(sum(abs(v) for v in row)) for row in m]
                for m in expected]
    table = view.base_table
    assert table.inv.tolist() == floats
    assert table.row_abs_sums.tolist() == sums


def test_entries_past_the_bound_take_python_ints():
    arr = custom([[10 ** 12, 3, 1], [7, 10 ** 11, 2], [1, 2, 3],
                  [5, -4, 3]])
    view = MatroidView(arr)
    bases = list(view.bases())
    num, den = integer_inverses(*ring_batch(arr, bases))
    assert num.dtype == object and isinstance(num[0, 0, 0], int)
    for b, inv, m, d in zip(bases, view.base_table.inv, num, den):
        expected = fraction_inverse(base_rows(arr, b))
        assert [[Fraction(v, d) for v in row] for row in m] == expected
        assert inv.tolist() == [[float(v) for v in row] for row in expected]


@pytest.mark.parametrize("a, dtype", [(27000, np.int64), (28000, object)])
def test_unimodular_entries_on_each_side_of_the_int64_bound(a, dtype):
    # det 1, so the inverse has entries as large as the matrix's; the
    # Hadamard bound M^2 = (2a^2 - 2a + 2)(2a^2 + 2a + 2) crosses 2^61
    # between a = 27000 and a = 28000
    rows = [[a, a - 1], [a + 1, a]]
    num, den = integer_inverses([rows], [[1, 1]])
    assert num.dtype == dtype
    assert num[0].tolist() == [[a, 1 - a], [-a - 1, a]] and den[0] == 1
    assert [[Fraction(int(v)) for v in row] for row in num[0]] == \
        fraction_inverse(rows)


@pytest.mark.parametrize("scale, dtype", [(10 ** 9 + 7, np.int64),
                                          (2 ** 52 + 1, object)])
def test_row_scales_on_each_side_of_the_float_bound(scale, dtype):
    # numerators times the row scales must convert to float exactly
    rows = [[Fraction(1, scale), Fraction(0)], [Fraction(1), Fraction(1)]]
    int_rows, scales = _ring_rows(rows)
    num, den = integer_inverses([int_rows], [scales])
    assert num.dtype == dtype
    inverse = [[Fraction(int(v), int(den[0])) for v in row] for row in num[0]]
    assert inverse == fraction_inverse(rows)


def test_a_singular_matrix_in_a_batch_raises():
    with pytest.raises(SingularSystemError):
        integer_inverses([[[1, 0], [0, 1]], [[1, 2], [2, 4]]],
                         [[1, 1], [1, 1]])
    z = Cyclotomic.zeta(3)
    one = Cyclotomic.from_rational(3, 1)
    batch = np.empty((2, 2, 2), dtype=object)
    batch[0] = [[one, z], [z, one]]
    batch[1] = [[one, z], [z, z * z]]          # row 2 = z * row 1
    with pytest.raises(SingularSystemError):
        cyclotomic_inverses(batch, [[1, 1], [1, 1]])


# --------------------------------------------------------------------------
# the base table
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_table_elements_equal_mask_elements(label):
    arr = FAMILIES[label]
    view = MatroidView(arr)
    table = view.base_table
    bases = list(view.bases())
    assert table.masks.tolist() == bases
    assert table.elems.tolist() == [list(mask_elements(b)) for b in bases]
    assert table.out.tolist() == [
        [e for e in range(arr.size) if not b >> e & 1] for b in bases]


@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_table_maps_to_the_non_base_values(label):
    arr = FAMILIES[label]
    table = MatroidView(arr).base_table
    for out, inv, to_out in zip(table.out, table.inv, table.to_out):
        assert np.array_equal(to_out, arr.coeff[out] @ inv)


def test_table_is_read_only():
    table = MatroidView(braid(4)).base_table
    for field in (table.masks, table.elems, table.out, table.inv,
                  table.to_out, table.abs_det, table.row_abs_sums,
                  table.inside(0b111011).inv):
        assert not field.flags.writeable


@pytest.mark.parametrize("label, within", [("braid4", 0b111011),
                                           ("braid4", 0b111111),
                                           ("coxeterB3", 0b101110111),
                                           ("dowling2_3", 0b011)])
def test_inside_keeps_the_rows_of_the_bases_inside(label, within):
    view = MatroidView(FAMILIES[label])
    table = view.base_table
    rows = [i for i, b in enumerate(view.bases()) if not b & ~within]
    assert rows and len(rows) == len(view.bases_of(within))
    part = table.inside(within)
    for name in ("masks", "elems", "out", "inv", "to_out", "abs_det",
                 "row_abs_sums"):
        assert np.array_equal(getattr(part, name), getattr(table, name)[rows])


def test_single_base_table_has_no_non_base_columns(tmp_path):
    arr = custom([[1, 0], [0, 1]])
    view = MatroidView(arr)
    table = view.base_table
    assert table.masks.tolist() == [0b11]
    assert table.out.shape == (1, 0) and table.to_out.shape == (1, 0, 2)
    est = volume_mc(view, 3, 1000, 0)
    assert est.mean == pytest.approx((4 * np.pi) ** 2, rel=1e-12)
    assert est.stderr == 0.0
    sample = sample_for_base(view, 0b11, 3, np.random.default_rng(0))
    assert sample.accepted and sample.x.shape == (2, 3)
    path = tmp_path / "samples.csv"
    dump_samples_csv(path, view, 2, 4, 0)
    lines = path.read_text().splitlines()
    assert len(lines) == 5 and all(line.startswith("3,1,")
                                   for line in lines[1:])


@pytest.mark.parametrize("mask", [0b1011, 0b1, 1 << 6, -1])
def test_sample_for_base_refuses_a_non_base(mask):
    # 0b1011: x1-x2, x1-x3, x2-x3 are dependent
    with pytest.raises(MatroidError):
        sample_for_base(braid(4), mask, 3, np.random.default_rng(0))


def count_inverse_batches(monkeypatch):
    """Monkeypatch the view's two batched inverses to record each batch's
    size."""
    batches = []
    for name in ("integer_inverses", "cyclotomic_inverses"):
        original = getattr(matroid, name)

        def counting(mats, *rest, original=original):
            batches.append(len(mats))
            return original(mats, *rest)

        monkeypatch.setattr(matroid, name, counting)
    return batches


def test_exact_queries_compile_no_inverses(monkeypatch):
    batches = count_inverse_batches(monkeypatch)
    for arr in (braid(6), coxeter_b(4), dowling(3, 3)):
        view = MatroidView(arr)
        view.chi_at_zero()
        rng = random.Random(0)
        for order in [LinearOrder.default(arr.size)] + [
                LinearOrder.shuffled(arr.size, rng) for _ in range(5)]:
            view.safe_base_count(order=order)
        assert sum(1 for _ in view.bases()) > 0
        assert "tables" in view._store and "base_table" not in view._store
    assert batches == []


def test_each_view_inverts_its_bases_once(monkeypatch):
    batches = count_inverse_batches(monkeypatch)
    check_dr(braid(4), 1, 4096, 0)
    check_dr(dowling(2, 3), 2, 4096, 0)
    assert batches == [16, 3]
    batches.clear()
    planar_invariance_check(coxeter_b(3), [[1.0] * 9, [2.0] * 9, [0.5] * 9],
                            4096, 0)
    assert batches == [len(list(MatroidView(coxeter_b(3)).bases()))]


def test_concurrent_readers_share_one_compiled_table(monkeypatch):
    batches = count_inverse_batches(monkeypatch)
    view = MatroidView(braid(5))
    tables = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: tables.append(
            view.base_table)) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert batches == [125] and len(tables) == 6
    assert all(table is tables[0] for table in tables)
