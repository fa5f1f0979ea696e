import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (hard_rod_pressure_coefficient, mc_sum,
                     pressure_coefficient_enumerated, slab_region_area)
from polygas.arrangement import braid, coxeter_d, dowling
from polygas.geometry import capped_cylinder_shape, cylinder_shape, sphere_shape
from polygas.matroid import MatroidView
from polygas.mayer import (MCEstimate, SpanningError, mmc_asa, mmc_d0, mmc_mc,
                           pressure_coefficient, pressure_exact_d0, z_score)


def within_sigma(est, target, k=4.0):
    spread = max(est.stderr, 1e-12 * max(abs(target), 1.0))
    return abs(est.mean - target) <= k * spread


def test_single_base_pressure_coefficient_is_exact():
    # coxeter_d(2)'s one base has |det| 2: every sample adds
    # V = 2^-1 * ball_volume(1)^2 = 2 times the chi weight 1
    est = pressure_coefficient(MatroidView(coxeter_d(2)), 1, 10_000, 0)
    assert (est.mean, est.stderr) == (2.0, 0.0)


def test_mmc_d0():
    v = MatroidView(braid(2))
    assert mmc_d0(v, 0b1) == -1
    v3 = MatroidView(braid(3))
    assert mmc_d0(v3, 0b111) == -1
    assert mmc_d0(v3, 0b011) == 1
    with pytest.raises(SpanningError):
        mmc_d0(v3, 0b001)


def test_mmc_braid2_d1():
    v = MatroidView(braid(2))
    est = mmc_mc(v, 0b1, 1, 100_000, 0)
    assert within_sigma(est, -2.0)


def test_mmc_braid2_d2_disk():
    v = MatroidView(braid(2))
    est = mmc_mc(v, 0b1, 2, 400_000, 1)
    assert within_sigma(est, -math.pi)


def test_mmc_braid3_triple_matches_exact_area():
    # oracle: exact polygon clipping of the three slabs
    area = slab_region_area([[1, -1], [1, 0], [0, 1]])
    assert area == 3
    v = MatroidView(braid(3))
    est = mmc_mc(v, 0b111, 1, 400_000, 2)
    assert within_sigma(est, -float(area))


def test_mmc_rejects_non_spanning():
    v = MatroidView(braid(3))
    with pytest.raises(SpanningError):
        mmc_mc(v, 0b001, 1, 100, 0)


def test_pressure_d0_exact():
    for arr, chi in ((braid(3), 2), (coxeter_d(2), 1), (braid(4), -6)):
        v = MatroidView(arr)
        assert pressure_exact_d0(v) == chi
        est = pressure_coefficient(v, 0, 1000, 0)
        assert est.mean == float(chi) and est.stderr == 0.0


def test_pressure_braid2_d1():
    v = MatroidView(braid(2))
    est = pressure_coefficient(v, 1, 50_000, 3)
    assert within_sigma(est, -2.0)


def test_pressure_braid3_d1_hard_rod_value():
    # oracle first: exact piecewise integration over connected graphs
    assert hard_rod_pressure_coefficient(3) == 9
    v = MatroidView(braid(3))
    est = pressure_coefficient(v, 1, 400_000, 4)
    assert within_sigma(est, 9.0)


def test_pressure_coxeter_d2_d1_exact_area():
    assert slab_region_area([[1, -1], [1, 1]]) == 2
    v = MatroidView(coxeter_d(2))
    est = pressure_coefficient(v, 1, 200_000, 5)
    assert within_sigma(est, 2.0)


def test_pressure_matches_enumerated():
    for arr in (braid(3), coxeter_d(2)):
        for d in (1, 2):
            v = MatroidView(arr)
            fast = pressure_coefficient(v, d, 150_000, 6)
            slow = pressure_coefficient_enumerated(v, d, 150_000, 7)
            assert abs(z_score(fast, slow)) < 4


def test_pressure_dowling_even_d():
    v = MatroidView(dowling(2, 3))
    est = pressure_coefficient(v, 2, 100_000, 8)
    # split evenly over the 3 tubes: 33333 rows each
    assert est.n_samples == 99_999
    with pytest.raises(ValueError):
        pressure_coefficient(v, 1, 100, 8)


def test_stderr_scales_like_sqrt_n():
    v = MatroidView(braid(3))
    small = pressure_coefficient(v, 1, 10_000, 9)
    large = pressure_coefficient(v, 1, 1_000_000, 9)
    ratio = small.stderr / large.stderr
    assert abs(ratio - 10.0) / 10.0 < 0.2


def test_determinism_and_worker_independence():
    v = MatroidView(braid(3))
    a = pressure_coefficient(v, 1, 200_000, 10, workers=1)
    b = pressure_coefficient(v, 1, 200_000, 10, workers=4)
    c = pressure_coefficient(v, 1, 200_000, 10, workers=8)
    assert (a.mean, a.stderr) == (b.mean, b.stderr) == (c.mean, c.stderr)
    d = pressure_coefficient(v, 1, 200_000, 11, workers=1)
    assert d.mean != a.mean


def test_mmc_asa_cylinder_interval():
    v = MatroidView(braid(2))
    est = mmc_asa(v, 0b1, [cylinder_shape(3, 1.0)], 1, 100_000, 12)
    assert within_sigma(est, -1.0)


def test_mmc_asa_sphere_reduces_to_disk():
    v = MatroidView(braid(2))
    est = mmc_asa(v, 0b1, [sphere_shape(4)], 2, 300_000, 13)
    assert within_sigma(est, -math.pi)


def test_mmc_asa_capped_cylinder_d3():
    # bottom volume in R^3: pi * L + 4 pi / 3 (body plus two half balls)
    v = MatroidView(braid(2))
    shape = capped_cylinder_shape(5, 1.0)
    expected = -(math.pi + 4 * math.pi / 3)
    assert shape.bottom_volume == pytest.approx(-expected)
    est = mmc_asa(v, 0b1, [shape], 3, 400_000, 14)
    assert within_sigma(est, expected)


def test_mmc_asa_dimension_mismatch():
    v = MatroidView(braid(2))
    with pytest.raises(ValueError):
        mmc_asa(v, 0b1, [cylinder_shape(3, 1.0)], 2, 100, 0)


# -- estimate container -----------------------------------------------------------

def test_merge_matches_single_pass():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1000)

    def est_of(chunk):
        n = len(chunk)
        return MCEstimate(float(chunk.mean()),
                          float(chunk.std(ddof=1) / math.sqrt(n)), n, 0, 1)

    merged = est_of(values[:300]).merge(est_of(values[300:]))
    whole = est_of(values)
    assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
    assert merged.stderr == pytest.approx(whole.stderr, rel=1e-12)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0, 10.0),
                          st.integers(2, 10_000)),
                min_size=3, max_size=3))
def test_merge_associative(parts):
    a, b, c = [MCEstimate(m, s, n, 0, 1) for (m, s, n) in parts]
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.n_samples == right.n_samples
    assert left.mean == pytest.approx(right.mean, rel=1e-9, abs=1e-9)
    assert left.stderr == pytest.approx(right.stderr, rel=1e-9, abs=1e-9)


def test_scaled_flips_sign_keeps_spread():
    e = MCEstimate(2.0, 0.5, 10, 0, 1)
    s = e.scaled(-2.0)
    assert s.mean == -4.0 and s.stderr == 1.0


def test_mc_sum():
    a = MCEstimate(1.0, 0.3, 10, 0, 1)
    b = MCEstimate(2.0, 0.4, 20, 0, 1)
    s = mc_sum([a, b], 0, 1)
    assert s.mean == 3.0
    assert s.stderr == pytest.approx(0.5)
    assert s.n_samples == 30


def test_json_round_trip():
    e = MCEstimate(1.5, 0.25, 123, 9, 4)
    d = e.to_json_dict("volume")
    assert d == {"mean": 1.5, "stderr": 0.25, "n_samples": 123, "seed": 9,
                 "workers": 4, "quantity": "volume"}
