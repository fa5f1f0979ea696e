import json
import math

import pytest

from oracles import hard_rod_pressure_coefficient
from polygas.arrangement import braid, coxeter_b, coxeter_d, dowling
from polygas.dimred import (balanced_weight_check, check_asa_dr, check_dr,
                            hard_rod_coefficient, tonks_series_check,
                            typeD_unbalanced_check, typed_spanning_cross_check)
from polygas.geometry import capped_cylinder_shape, cylinder_shape, sphere_shape
from polygas.matroid import MatroidView
from polygas.mayer import pressure_coefficient, z_score
from polygas.polymer import volume_mc


def test_check_dr_braid2_closed_form():
    rep = check_dr(braid(2), 1, 50_000, 0)
    assert rep.passed
    assert rep.lhs.mean == pytest.approx(4 * math.pi, rel=1e-9)
    assert rep.rhs.mean == pytest.approx(4 * math.pi, rel=1e-9)


def test_check_dr_braid3_d0():
    rep = check_dr(braid(3), 0, 150_000, 1)
    assert rep.passed
    assert rep.lhs.mean == pytest.approx(8 * math.pi ** 2, rel=1e-12)
    assert rep.lhs.stderr == 0.0


def test_check_dr_braid3_d1():
    rep = check_dr(braid(3), 1, 300_000, 2)
    assert rep.passed
    assert abs(rep.rhs.mean - 9 * (2 * math.pi) ** 2) < 5 * rep.rhs.stderr


def test_check_dr_coxeter_d2_d0():
    rep = check_dr(coxeter_d(2), 0, 100_000, 3)
    assert rep.passed


def test_check_dr_coxeter_b2_d0():
    rep = check_dr(coxeter_b(2), 0, 150_000, 4)
    assert rep.passed
    assert rep.lhs.mean == pytest.approx(3 * (2 * math.pi) ** 2, rel=1e-12)


def test_check_dr_cyclotomic_odd_d_rejected():
    with pytest.raises(ValueError, match="even d"):
        check_dr(dowling(2, 3), 1, 100, 0)


def test_report_serialization():
    rep = check_dr(braid(2), 0, 1_000, 5)
    d = rep.to_json_dict()
    text = json.dumps(d, sort_keys=True)
    back = json.loads(text)
    assert back["pass"] is True
    assert back["arrangement"]["family"] == "braid"
    assert set(back["lhs"]) >= {"mean", "stderr", "n_samples", "seed", "workers"}


def test_pair_functional_volume_carries_base_determinant_factor():
    """For the pair-sum/difference family every base matrix has determinant
    of magnitude 2, so the polymer volume at d + 2 exceeds
    (2 pi)^n |pressure| by exactly 2^d; the identity as checked by check_dr
    holds only for unimodular families (pair differences).  Pinned here so
    the acceptance failure for this family is visibly a measured fact."""
    for n in (2, 3):
        arr = coxeter_d(n)
        view = MatroidView(arr)
        d = 1
        pressure = pressure_coefficient(view, d, 400_000, 6)
        vol = volume_mc(arr, d + 2, 400_000, 7)
        # coxeter_d(2) has a single base, so both of its sides are exact:
        # z_score floors the spread at 1e-12 relative for float rounding
        corrected = pressure.scaled(2 ** d * (-2 * math.pi) ** n)
        assert abs(z_score(corrected, vol)) < 4
        plain = pressure.scaled((-2 * math.pi) ** n)
        assert abs(z_score(plain, vol)) > 20


def test_hard_rod_coefficients():
    assert hard_rod_coefficient(2) == -2
    assert hard_rod_coefficient(3) == 9
    assert hard_rod_coefficient(4) == -64
    # the exact clipping oracle reproduces the closed form
    assert hard_rod_pressure_coefficient(2) == -2
    assert hard_rod_pressure_coefficient(3) == 9


def test_tonks_series():
    rep = tonks_series_check(3, 200_000, 8)
    assert rep.passed
    assert [r.m for r in rep.rows] == [2, 3]
    assert [r.expected for r in rep.rows] == [-2, 9]
    with pytest.raises(ValueError):
        tonks_series_check(5)


def test_typed_spanning_cross_check():
    assert typed_spanning_cross_check(2)
    assert typed_spanning_cross_check(3)
    assert typed_spanning_cross_check(4)


def test_typeD_d0():
    rep = typeD_unbalanced_check(2, 0, 100_000, 9)
    assert rep.combinatorial_ok and rep.dr.passed
    assert rep.dr.lhs.mean == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    rep3 = typeD_unbalanced_check(3, 0, 100_000, 10)
    assert rep3.combinatorial_ok and rep3.dr.passed
    assert rep3.dr.lhs.mean == pytest.approx(6 * (2 * math.pi) ** 3, rel=1e-12)
    with pytest.raises(ValueError):
        typeD_unbalanced_check(4, 0, 100, 0)


def test_balanced_weight_check():
    for n in range(2, 6):
        assert balanced_weight_check(n)
    with pytest.raises(ValueError):
        balanced_weight_check(6)


def test_asa_dr_cylinder():
    rep = check_asa_dr(braid(2), [cylinder_shape(3, 1.0)], 1, 100_000, 11)
    assert rep.passed
    assert rep.rhs.mean == pytest.approx(2 * math.pi, rel=1e-12)


def test_asa_dr_sphere_reduces_to_plain():
    rep = check_asa_dr(braid(2), [sphere_shape(3)], 1, 100_000, 12)
    assert rep.passed
    assert rep.rhs.mean == pytest.approx(4 * math.pi, rel=1e-12)


def test_asa_dr_capped_cylinder_closed_form():
    length = 1.0
    rep = check_asa_dr(braid(2), [capped_cylinder_shape(3, length)], 1,
                       150_000, 13)
    assert rep.passed
    assert rep.rhs.mean == pytest.approx(2 * math.pi * (length + 2), rel=1e-12)
    assert rep.lhs.mean == pytest.approx(2 * math.pi * (length + 2), rel=1e-3)
