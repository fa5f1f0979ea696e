"""The batched kernels against the per-row and per-matrix paths they
replaced, compared with ==: functional values as one GEMM per block and the
masks from them, the guide-table base pick of the tube kernel, and the
batched fraction-free base inverses."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_inverse
from polygas import mayer
from polygas.arrangement import (braid, coxeter_b, coxeter_d, custom, dowling,
                                 threshold, widom_rowlinson)
from polygas.exact_linalg import (Cyclotomic, SingularSystemError, _ring_rows,
                                  cyclotomic_inverses, integer_inverses)
from polygas.matroid import MatroidError, MatroidView, mask_elements

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

_COXETER_B3 = MatroidView(coxeter_b(3))
COXETER_B3_DETS = np.array(
    [i.abs_det for i in _COXETER_B3.base_inverses(_COXETER_B3.bases())])


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
    mats = np.array(rows, dtype=object)[elems]
    if scales is None:
        return mats, None
    return mats, np.array(scales, dtype=object)[elems]


@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_batched_inverses_equal_fraction_gauss_jordan(label):
    arr = FAMILIES[label]
    view = MatroidView(arr)
    bases = list(view.bases())
    expected = [fraction_inverse(base_rows(arr, b)) for b in bases]
    mats, scales = ring_batch(arr, bases)
    if scales is None:
        exact, _ = cyclotomic_inverses(mats)
        assert [m.tolist() for m in exact] == expected
        floats = [[[v.to_complex() for v in row] for row in m]
                  for m in expected]
        sums = [tuple(sum(abs(v.to_complex()) for v in row) for row in m)
                for m in expected]
    else:
        num, den = integer_inverses(mats, scales)
        assert num.dtype == np.int64 and (den > 0).all()
        assert [[[Fraction(int(v), int(d)) for v in row] for row in m]
                for m, d in zip(num, den)] == expected
        floats = [[[float(v) for v in row] for row in m] for m in expected]
        sums = [tuple(float(sum(abs(v) for v in row)) for row in m)
                for m in expected]
    inverses = view.base_inverses(bases)
    assert [i.rows.tolist() for i in inverses] == floats
    assert [i.row_abs_sums for i in inverses] == sums


def test_entries_past_the_bound_take_python_ints():
    arr = custom([[10 ** 12, 3, 1], [7, 10 ** 11, 2], [1, 2, 3],
                  [5, -4, 3]])
    view = MatroidView(arr)
    bases = list(view.bases())
    num, den = integer_inverses(*ring_batch(arr, bases))
    assert num.dtype == object and isinstance(num[0, 0, 0], int)
    for b, inverse, m, d in zip(bases, view.base_inverses(bases), num, den):
        expected = fraction_inverse(base_rows(arr, b))
        assert [[Fraction(v, d) for v in row] for row in m] == expected
        assert inverse.rows.tolist() == [[float(v) for v in row]
                                         for row in expected]


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
        cyclotomic_inverses(batch)


def test_base_inverse_is_a_batch_of_one():
    view = MatroidView(braid(4))
    bases = list(view.bases())
    assert view.base_inverse(bases[3]) is view.base_inverses([bases[3]])[0]
    batch = view.base_inverses(bases)
    assert batch[3] is view.base_inverse(bases[3])
    assert all(a is b for a, b in zip(batch, view.base_inverses(bases)))
    with pytest.raises(MatroidError):
        view.base_inverses([bases[0], 0b1011])    # x1-x2, x1-x3, x2-x3
