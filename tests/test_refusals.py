"""Refused calls fail before they compile anything.

A call checks its inputs first, then compiles the subset tables its weight
reads, then the base table, then draws.  So every call below raises its own
message and leaves the view's compiled store empty.
"""

import re

import numpy as np
import pytest

import polygas
from polygas.arrangement import braid, dowling
from polygas.dimred import check_dr
from polygas.geometry import cylinder_shape, sphere_shape
from polygas.matroid import LinearOrder, MatroidError, MatroidView
from polygas.mayer import (SpanningError, asa_pressure_coefficient, mmc_asa,
                           mmc_mc, pressure_coefficient)
from polygas.polymer import (G_FUNCTIONS, asa_volume_mc, dump_samples_csv,
                             planar_invariance_check, project_expectation,
                             safe_projection_expectation, sample_for_base,
                             volume_mc)

CYL3 = cylinder_shape(3, 1.0)
UNKNOWN_G = f"unknown g 'nope'; choose from {sorted(G_FUNCTIONS)}"

# (arrangement, call(view, tmp_path), exception, message)
REFUSALS = {
    "mmc_mc-d0": (
        braid(3), lambda v, p: mmc_mc(v, 0b011, 0, 100, 0),
        ValueError, "d must be >= 1"),
    "mmc_asa-d0": (
        braid(3), lambda v, p: mmc_asa(v, 0b011, [sphere_shape(2)] * 3, 0,
                                       100, 0),
        ValueError, "d must be >= 1"),
    "mmc_asa-not-spanning": (
        braid(3), lambda v, p: mmc_asa(v, 0b001, [CYL3] * 3, 1, 100, 0),
        SpanningError, "does not span"),
    "pressure-cyclotomic-odd-d": (
        dowling(2, 3), lambda v, p: pressure_coefficient(v, 1, 100, 0),
        ValueError, "cyclotomic arrangements need even d"),
    "asa_pressure-shape-count": (
        braid(3), lambda v, p: asa_pressure_coefficient(v, [CYL3] * 2, 1,
                                                        100, 0),
        ValueError, "one shape per hyperplane"),
    "asa_pressure-shape-type": (
        braid(3), lambda v, p: asa_pressure_coefficient(v, ["cyl"] * 3, 1,
                                                        100, 0),
        TypeError, "shapes must be ASAShape instances"),
    "asa_volume-mixed-dims": (
        braid(3), lambda v, p: asa_volume_mc(
            v, [CYL3, CYL3, cylinder_shape(4, 1.0)], 100, 0),
        ValueError, "all shapes must share one ambient dimension"),
    "asa_volume-shape-type": (
        braid(3), lambda v, p: asa_volume_mc(v, ["x"] * 3, 100, 0),
        TypeError, "shapes must be ASAShape instances"),
    "asa_volume-no-shapes": (
        braid(3), lambda v, p: asa_volume_mc(v, [], 100, 0),
        ValueError, "need one shape per hyperplane"),
    "volume-dim1": (
        braid(3), lambda v, p: volume_mc(v, 1, 100, 0),
        ValueError, "polymer dimension must be >= 2"),
    "volume-cyclotomic-odd-dim": (
        dowling(2, 3), lambda v, p: volume_mc(v, 3, 100, 0),
        ValueError, "even polymer dimension"),
    "sample_for_base-dim1": (
        braid(3), lambda v, p: sample_for_base(v, 0b011, 1,
                                               np.random.default_rng(0)),
        ValueError, "polymer dimension must be >= 2"),
    "sample_for_base-not-a-base": (
        braid(3), lambda v, p: sample_for_base(v, 0b111, 2,
                                               np.random.default_rng(0)),
        MatroidError, "is not a base"),
    "dump_samples-dim1": (
        braid(3), lambda v, p: dump_samples_csv(p / "s.csv", v, 1, 5, 0),
        ValueError, "polymer dimension must be >= 2"),
    "invariance-no-radii": (
        braid(3), lambda v, p: planar_invariance_check(v, [], 1000, 0),
        ValueError, "at least one radii assignment"),
    "project-d0": (
        braid(3), lambda v, p: project_expectation(v, 0, "norm_sq", 100, 0),
        ValueError, "d must be >= 1"),
    "project-unknown-g": (
        braid(3), lambda v, p: project_expectation(v, 1, "nope", 3000, 0),
        ValueError, UNKNOWN_G),
    "project-unknown-g-cyclotomic": (
        dowling(2, 3), lambda v, p: project_expectation(v, 2, "nope", 100, 0),
        ValueError, UNKNOWN_G),
    "safe_projection-short-order": (
        braid(3), lambda v, p: safe_projection_expectation(
            v, 1, "norm_sq", LinearOrder([0, 1]), 100, 0),
        MatroidError, "not a permutation of the ground set"),
    "safe_projection-cyclotomic": (
        dowling(2, 3), lambda v, p: safe_projection_expectation(
            v, 2, "norm_sq", LinearOrder.default(3), 100, 0),
        ValueError, "projection laws are stated for real arrangements"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refused_calls_compile_nothing(name, tmp_path):
    arr, call, error, message = REFUSALS[name]
    view = MatroidView(arr)
    with pytest.raises(error, match=re.escape(message)):
        call(view, tmp_path)
    assert view._store == {}
    assert list(tmp_path.iterdir()) == []


def test_input_checks_come_before_the_table_limit():
    # 30 hyperplanes: the subset tables would be refused, but odd d is
    # refused first
    with pytest.raises(ValueError, match="even d"):
        check_dr(dowling(4, 5), 1, 100, 0)


def test_projection_is_refused_by_the_tables_before_any_draw():
    view = MatroidView(braid(8))                     # 28 hyperplanes
    with pytest.raises(MatroidError, match="at most 24 hyperplanes"):
        project_expectation(view, 1, "norm_sq", 1000, 0)
    assert view._store == {}


def test_package_exports_the_warped_pressure_coefficient():
    assert polygas.asa_pressure_coefficient is asa_pressure_coefficient
