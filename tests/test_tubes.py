"""The base-tube estimators against the bounding-box oracle
(`oracles.box_estimate`): every region estimator, at |z| < 4, on
unimodular and mixed-determinant arrangements, the cyclotomic Jacobian and
the warped shapes; the tube kernel's guard against float rounding on the
boundary of a tube; and the determinism contract of every region
estimator across worker counts."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (box_estimate, mc_sum, pressure_coefficient_enumerated,
                     slab_region_area, spanning_subsets)
from polygas import mayer
from polygas.arrangement import braid, coxeter_b, custom, dowling
from polygas.geometry import capped_cylinder_shape, cylinder_shape
from polygas.matroid import (MAX_TABLE_SIZE, LinearOrder, MatroidError,
                             MatroidView, mask_elements)
from polygas.mayer import (asa_pressure_coefficient, mmc_asa, mmc_mc,
                           pressure_coefficient, z_score)
from polygas.polymer import project_expectation, safe_projection_expectation

N = 1 << 15


def ramp(arr):
    return arr.with_radii([1.0 + 0.5 * e for e in range(arr.size)])


CASES = {
    "braid4-d1": (braid(4), 1),
    "braid4-d2": (braid(4), 2),
    "coxeterB3-ramp-d1": (ramp(coxeter_b(3)), 1),
    "dowling2_3-d2": (dowling(2, 3), 2),
}

WARPED = {
    "braid3-capped": (braid(3), capped_cylinder_shape(3, 1.0)),
    "braid3-cylinder": (braid(3), cylinder_shape(3, 1.0)),
    "braid4-capped": (braid(4), capped_cylinder_shape(3, 1.0)),
    "braid4-cylinder": (braid(4), cylinder_shape(3, 1.0)),
}


def norm_sq(y):
    return np.sum(y * y, axis=(1, 2))


def contains(mask):
    return lambda masks: (masks & mask) == mask


def parity(mask):
    return -1.0 if bin(mask).count("1") & 1 else 1.0


def assert_agree(tube, box):
    z = z_score(tube, box)
    assert abs(z) < 4, (tube, box, z)
    assert tube.stderr < box.stderr


def proper_spanning_subset(view):
    """The spanning subset other than the ground set with the most bases:
    its tubes are some, but not all, of the view's tubes."""
    return max((m for m in spanning_subsets(view) if m != view.ground_mask),
               key=lambda m: len(view.bases_of(m)))


@pytest.mark.parametrize("label", sorted(CASES))
def test_pressure_coefficient_matches_box(label):
    arr, d = CASES[label]
    view = MatroidView(arr)
    tube = pressure_coefficient(view, d, N, 1)
    box = box_estimate(view, d, view.chi_table.__getitem__, N, 2)
    assert_agree(tube, box)


@pytest.mark.parametrize("label", sorted(CASES))
def test_mmc_mc_matches_box(label):
    arr, d = CASES[label]
    view = MatroidView(arr)
    for mask in (view.ground_mask, proper_spanning_subset(view)):
        tube = mmc_mc(view, mask, d, N, 3)
        box = box_estimate(view, d, contains(mask), N, 4).scaled(parity(mask))
        assert_agree(tube, box)


@pytest.mark.parametrize("label", ["braid4-d1", "braid4-d2", "dowling2_3-d2"])
def test_enumerated_matches_box(label):
    arr, d = CASES[label]
    view = MatroidView(arr)
    n = 1 << 12
    tube = pressure_coefficient_enumerated(view, d, n, 5)
    box = mc_sum([box_estimate(view, d, contains(mask), n, 6,
                               stream_base=index << 32).scaled(parity(mask))
                  for index, mask in enumerate(spanning_subsets(view))], 6, 1)
    assert_agree(tube, box)


@pytest.mark.parametrize("label", ["braid4-d1", "braid4-d2",
                                   "coxeterB3-ramp-d1"])
def test_projection_sides_match_box(label):
    arr, d = CASES[label]
    view = MatroidView(arr)
    n = arr.ambient_dim
    tube = project_expectation(arr, d, norm_sq, N, 7).mmc_side
    box = box_estimate(view, d, view.chi_table.__getitem__, N, 9,
                       g=norm_sq).scaled((-2.0 * math.pi) ** n)
    assert_agree(tube, box)
    order = LinearOrder(reversed(range(arr.size)))
    safe = safe_projection_expectation(arr, d, norm_sq, order, N, 10)

    def safe_counts(masks):
        return np.array([view.safe_count_if_spanning(int(m), order)
                         for m in masks], dtype=float)

    box = box_estimate(view, d, safe_counts, N, 11,
                       g=norm_sq).scaled((2.0 * math.pi) ** n)
    assert abs(z_score(safe, box)) < 4


@pytest.mark.parametrize("label", sorted(WARPED))
def test_warped_estimators_match_box(label):
    arr, shape = WARPED[label]
    view = MatroidView(arr)
    shapes = [shape] * arr.size
    tube = asa_pressure_coefficient(view, shapes, 1, N, 12)
    box = box_estimate(view, 1, view.chi_table.__getitem__, N, 13,
                       shapes=shapes)
    assert_agree(tube, box)
    mask = view.ground_mask
    tube = mmc_asa(view, mask, shapes, 1, N, 14)
    box = box_estimate(view, 1, contains(mask), N, 15,
                       shapes=shapes).scaled(parity(mask))
    assert_agree(tube, box)


def test_mixed_shapes_match_box():
    arr = braid(3)
    view = MatroidView(arr)
    shapes = [cylinder_shape(3, 1.0), capped_cylinder_shape(3, 0.5),
              cylinder_shape(3, 2.0)]
    tube = asa_pressure_coefficient(view, shapes, 1, N, 16)
    box = box_estimate(view, 1, view.chi_table.__getitem__, N, 17,
                       shapes=shapes)
    assert_agree(tube, box)


def test_tube_boundary_draws_give_finite_weights(monkeypatch):
    # braid(5) with unequal radii: solving for x and evaluating h_e(x) again
    # puts many tube corners (|h_e| = R_e for every e in the base) just
    # outside a ball of their own base.  The kernel draws such corners here
    # (every unit-ball draw at +-1) and must still count each row's own
    # base, nb >= 1, however its non-base values round
    arr = braid(5).with_radii([1.0 + 0.3 * e for e in range(10)])
    view = MatroidView(arr)
    radii = np.asarray(arr.radii)
    dropped = 0
    for base, inv in zip(view.bases(), view.base_table.inv):
        elems = list(mask_elements(base))
        for signs in itertools.product((-1.0, 1.0), repeat=len(elems)):
            x = inv @ (np.array(signs) * radii[elems])[:, None]
            dropped += int(arr.gamma_masks(x[None])[0]) & base != base
    assert dropped > 0

    def corner_draw(d, rng, count, out, work):
        out[:] = rng.choice((-1.0, 1.0), size=(count, d))
        return out

    monkeypatch.setattr(mayer, "uniform_ball", corner_draw)
    est = pressure_coefficient(view, 1, 4096, 0)
    assert math.isfinite(est.mean) and math.isfinite(est.stderr)
    est = mmc_mc(view, view.ground_mask, 1, 4096, 0)
    assert math.isfinite(est.mean) and math.isfinite(est.stderr)


def test_single_base_arrangements_are_exact():
    # one base: every tube sample has the same mask and weight
    view = MatroidView(braid(2).with_radii([1.5]))
    est = pressure_coefficient(view, 1, 10_000, 0)
    assert est.mean == pytest.approx(-3.0, rel=1e-15) and est.stderr < 1e-12
    shapes = [capped_cylinder_shape(3, 1.0)]
    est = asa_pressure_coefficient(view, shapes, 1, 10_000, 0)
    assert est.mean == pytest.approx(-3.0, rel=1e-15) and est.stderr < 1e-12


def test_single_coefficients_need_no_tables():
    # 30 hyperplanes of rank 2: too many for the tables over all subsets,
    # but only 435 bases, whose tubes the single coefficients and the safe
    # projection law sample without the nb table
    normals = [[1, Fraction(k, 4)] for k in range(29)] + [[0, 1]]
    arr = custom(normals)
    view = MatroidView(arr)
    assert arr.size > MAX_TABLE_SIZE
    with pytest.raises(MatroidError):
        view.nb_table
    est = mmc_mc(view, view.ground_mask, 1, 1 << 14, 0)
    assert abs(est.mean - float(slab_region_area(normals))) < 4 * est.stderr
    shapes = [capped_cylinder_shape(3, 1.0)] * arr.size
    est = mmc_asa(view, view.ground_mask, shapes, 1, 1 << 12, 0)
    assert est.mean > 0 and math.isfinite(est.stderr)
    est = safe_projection_expectation(arr, 1, norm_sq,
                                      LinearOrder.default(arr.size), 1 << 10, 0)
    assert est.mean > 0 and math.isfinite(est.stderr)


def test_region_estimators_bit_identical_across_workers():
    # braid(5)'s 125 tubes at 140,000 samples: 1120 rows per base, so a
    # block holds 7 to 9 base runs, and 3 chunks
    arr = braid(5)
    view = MatroidView(arr)
    n = 140_000
    bases = view.base_table.masks.size
    per_base = n // bases
    assert per_base * bases > 2 * mayer.CHUNK
    assert 2 * per_base < mayer.BLOCK
    shapes = [capped_cylinder_shape(3, 1.0)] * arr.size
    subset = proper_spanning_subset(view)
    order = LinearOrder(reversed(range(arr.size)))
    calls = {
        "pressure_coefficient": lambda w: pressure_coefficient(view, 1, n, 40, w),
        "mmc_mc-within": lambda w: mmc_mc(view, subset, 1, n, 41, w),
        "mmc_asa": lambda w: mmc_asa(view, view.ground_mask, shapes, 1, n, 42, w),
        "asa_pressure_coefficient":
            lambda w: asa_pressure_coefficient(view, shapes, 1, n, 43, w),
        "project_expectation":
            lambda w: project_expectation(view, 1, norm_sq, n, 44, w).mmc_side,
        "safe_projection_expectation":
            lambda w: safe_projection_expectation(view, 1, norm_sq, order, n,
                                                  45, w),
    }
    for name, call in calls.items():
        one, two = call(1), call(2)
        assert ((one.mean, one.stderr, one.n_samples)
                == (two.mean, two.stderr, two.n_samples)), name
        assert one.n_samples > 2 * mayer.CHUNK, name
