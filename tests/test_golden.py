"""Golden values: exact estimates for fixed (seed, samples), compared with
==.  Any change to a random stream, a chunk boundary, a merge order or the
box shows up here; a refactor that leaves the streams alone must leave
these bits alone too."""

from polygas import (MatroidView, braid, bounding_halfwidth, check_dr, dowling,
                     pressure_coefficient, volume_mc)


def _triple(est):
    return (est.mean, est.stderr, est.n_samples)


def test_pressure_coefficient_braid4():
    est = pressure_coefficient(MatroidView(braid(4)), 1, 2 ** 17, 5)
    assert _triple(est) == (-64.62597656250196, 0.617464089051714, 131072)


def test_volume_braid4():
    est = volume_mc(braid(4), 3, 2 ** 17, 6)
    assert _triple(est) == (15855.350264315186, 43.536636799833204, 131072)


def test_check_dr_dowling_2_3():
    report = check_dr(dowling(2, 3), 2, 2 ** 16, 7)
    assert _triple(report.lhs) == (316.4099216502141, 2.5630714501771252, 65536)
    # 65536 samples split over 3 bases: 21845 each
    assert _triple(report.rhs) == (942.493711023616, 1.8044840938374096, 65535)


def test_bounding_halfwidth_braid5():
    assert bounding_halfwidth(braid(5)).halfwidth == 4.00000000000004
