import math

import numpy as np
import pytest
from scipy import stats

from oracles import gaussian_sphere
from polygas.arrangement import ArrangementError, braid, coxeter_d
from polygas.geometry import (ASAShape, RNGStream, _Work, ball_volume,
                              bounding_halfwidth, capped_cylinder_shape,
                              cylinder_shape, sample_unit_sphere, sphere_shape,
                              surface_measure_total, uniform_ball)


def rng_for(test_id=0):
    return RNGStream(1234, test_id).generator()


def test_rng_stream_reproducible():
    a = RNGStream(7, 3).generator().random(5)
    b = RNGStream(7, 3).generator().random(5)
    c = RNGStream(7, 4).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ball_volume_exact_in_low_dimensions():
    # the recurrence V_d = V_(d-2) 2 pi / d: no gamma-function rounding
    assert ball_volume(0) == 1.0
    assert ball_volume(1) == 2.0
    assert ball_volume(2) == math.pi
    for dim in range(9):
        assert ball_volume(dim) == pytest.approx(
            math.pi ** (dim / 2) / math.gamma(dim / 2 + 1), rel=1e-15)


def test_sphere_d1_signs():
    pts = sample_unit_sphere(1, rng_for(), 20_000)
    assert set(np.unique(pts)) == {-1.0, 1.0}
    # balanced within 4 sigma of a fair coin
    assert abs(pts.mean()) < 4 / math.sqrt(20_000)


def test_sphere_unit_norm():
    for dim in (2, 3, 4, 7):
        pts = sample_unit_sphere(dim, rng_for(dim), 10_000)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12


def test_sphere_mean_near_zero():
    pts = sample_unit_sphere(2, rng_for(2), 1_000_000)
    # each coordinate has variance 1/2 on the circle
    bound = 4 * math.sqrt(0.5 / 1_000_000)
    assert np.all(np.abs(pts.mean(axis=0)) < bound)


def test_sphere_d4_coordinate_variance():
    pts = sample_unit_sphere(4, rng_for(3), 1_000_000)
    v = pts.var(axis=0)
    # Var(x_i^2)-based 4 sigma band around 1/4
    spread = 4 * np.sqrt(pts[:, 0].__pow__(2).var() / len(pts))
    assert np.all(np.abs(v - 0.25) < spread + 1e-3)


def test_sphere_normalization_matches_linalg_norm():
    # dims 1 and 5-7 normalise Gaussian points: the column-wise norms give
    # the points bit for bit as np.linalg.norm does below 8 dimensions
    for dim in (1, 5, 6, 7):
        pts = sample_unit_sphere(dim, RNGStream(5, dim).generator(), 1000)
        assert np.array_equal(
            pts, gaussian_sphere(dim, RNGStream(5, dim).generator(), 1000))
    # dims 2-4 are built from disk points, a stream of their own: each
    # coordinate has the law of the normalised Gaussian points' (two-sample
    # KS at pinned seeds)
    for dim in (2, 3, 4):
        pts = sample_unit_sphere(dim, RNGStream(5, dim).generator(), 20_000)
        ref = gaussian_sphere(dim, RNGStream(6, dim).generator(), 20_000)
        for axis in range(dim):
            assert stats.ks_2samp(pts[:, axis], ref[:, axis]).pvalue > 1e-3


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sphere_fourth_moments(dim):
    # E[x_i^4] = 3 / (dim (dim + 2)) on S^(dim-1), each coordinate within
    # 4 sigma
    n = 400_000
    x4 = sample_unit_sphere(dim, rng_for(20 + dim), n) ** 4
    bound = 4 * x4.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(x4.mean(axis=0) - 3 / (dim * (dim + 2))) < bound)


class _FirstFillRejected:
    """A generator whose first random(out=...) fill makes every disk
    candidate the centre, a point of the circle or a point outside it; its
    later draws are a real generator's."""

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def random(self, size=None, out=None):
        values = self._rng.random(size, out=out)
        if self._first:
            self._first = False
            # (0.5, 0.5) -> (0, 0); (0, 0.5) -> (-1, 0); (0.9, 0.95) -> (0.8, 0.9)
            pairs = values.reshape(-1, 2)
            for i, pair in enumerate(((0.5, 0.5), (0.0, 0.5), (0.9, 0.95))):
                pairs[i::3] = pair
        return values


@pytest.mark.parametrize("draw, dim", [(sample_unit_sphere, 2),
                                       (sample_unit_sphere, 3),
                                       (sample_unit_sphere, 4),
                                       (uniform_ball, 2)])
def test_disk_redraw_leaves_no_rejected_point(draw, dim):
    pts = draw(dim, _FirstFillRejected(rng_for(30)), 5000)
    assert np.all(np.isfinite(pts))
    norms = np.linalg.norm(pts, axis=1)
    if draw is uniform_ball:
        assert np.all((norms > 0.0) & (norms < 1.0))
    else:
        assert np.max(np.abs(norms - 1.0)) < 1e-12


# The hat-box split of a point of S^(D-1) is plain slicing: w = the first two
# coordinates, y = the rest, a point of the bottom B^(D-2).

def test_archimedes_north_pole():
    pole = np.array([[0.0, 0.0, 0.0, 1.0]])
    w, y = pole[:, :2], pole[:, 2:]
    assert np.allclose(w, [[0.0, 0.0]])
    assert np.allclose(y, [[0.0, 1.0]])
    # the pole sits over the bottom's boundary, where the circle shrinks to 0
    s = sphere_shape(4)
    assert s.bottom_contains(y)[0]
    assert s.warp(y)[0] == 0.0


def test_archimedes_requires_dim3():
    # below D = 3 there is no bottom coordinate: S^1 is the whole circle
    s = sphere_shape(2)
    assert s.bottom_dim == 0
    pts = s.sample_surface(rng_for(4), 1000)
    assert pts.shape == (1000, 2)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_archimedes_d3_uniform_marginal():
    pts = sample_unit_sphere(3, rng_for(5), 200_000)
    y = pts[:, 2:]
    res = stats.kstest(y[:, 0], "uniform", args=(-1, 2))
    assert res.pvalue > 1e-3


def test_archimedes_d4_area_law():
    pts = sample_unit_sphere(4, rng_for(6), 200_000)
    y = pts[:, 2:]
    res = stats.kstest(np.sum(y * y, axis=1), "uniform")
    assert res.pvalue > 1e-3


def test_uniform_ball_radial_law():
    y = uniform_ball(3, rng_for(8), 200_000)
    r3 = np.linalg.norm(y, axis=1) ** 3
    assert stats.kstest(r3, "uniform").pvalue > 1e-3
    assert uniform_ball(0, rng_for(9), 5).shape == (5, 0)


@pytest.mark.parametrize(
    "draw, dim",
    [pytest.param(uniform_ball, dim, id=str(dim)) for dim in range(4)]
    + [pytest.param(sample_unit_sphere, dim, id=f"sphere{dim}")
       for dim in range(1, 6)])
def test_uniform_ball_fills_out_with_the_same_draws(draw, dim):
    # with or without out and work, and with a work whose buffers hold a
    # larger earlier draw, the same bits
    want = draw(dim, rng_for(10), 1000)
    used = _Work()
    draw(dim, rng_for(11), 3000, work=used)
    for kwargs in ({"out": True}, {"work": _Work()}, {"work": used},
                   {"out": True, "work": used}):
        out = np.full((1000, dim), np.nan)
        if kwargs.pop("out", False):
            assert draw(dim, rng_for(10), 1000, out=out, **kwargs) is out
        else:
            out = draw(dim, rng_for(10), 1000, **kwargs)
        assert np.array_equal(out, want)
    norms_sq = np.sum(want * want, axis=1)
    if draw is sample_unit_sphere:
        assert np.max(np.abs(norms_sq - 1.0)) < 1e-12
        return
    assert np.all(norms_sq <= 1.0)
    if dim == 1:    # uniform on [-1, 1]: radius |u| uniform on [0, 1]
        assert stats.kstest(np.abs(want[:, 0]), "uniform").pvalue > 1e-3
        # 2u - 1 in place is rng.uniform(-1, 1) bit for bit
        assert np.array_equal(want[:, 0], rng_for(10).uniform(-1.0, 1.0, 1000))


def test_surface_measure_closed_forms():
    assert surface_measure_total(sphere_shape(3)) == pytest.approx(4 * math.pi)
    assert surface_measure_total(sphere_shape(2)) == pytest.approx(2 * math.pi)
    assert surface_measure_total(cylinder_shape(3, 2.0)) == pytest.approx(4 * math.pi)
    assert surface_measure_total(capped_cylinder_shape(3, 1.0)) == \
        pytest.approx(2 * math.pi * 3.0)


def test_surface_equals_2pi_bottom_volume():
    shapes = [sphere_shape(d) for d in range(2, 9)]
    shapes += [cylinder_shape(d, 1.5) for d in range(3, 7)]
    shapes += [capped_cylinder_shape(d, 0.8) for d in range(3, 7)]
    for s in shapes:
        total = surface_measure_total(s)
        assert total == pytest.approx(2 * math.pi * s.bottom_volume, rel=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        ASAShape("cylinder", 3)          # missing length
    with pytest.raises(ValueError):
        ASAShape("cylinder", 2, 1.0)     # too few dimensions
    with pytest.raises(ValueError):
        ASAShape("wedge", 3, 1.0)


def test_sphere_warp_and_bottom():
    s = sphere_shape(4)
    y = np.array([[0.0, 0.0], [0.6, 0.8], [1.2, 0.0]])
    assert np.allclose(s.warp(y), [1.0, 0.0, 0.0])
    assert list(s.bottom_contains(y)) == [True, True, False]


def test_capped_bottom_capsule():
    s = capped_cylinder_shape(3, 1.0)   # bottom: interval of length 3
    y = np.array([[0.0], [1.4], [1.6]])
    assert list(s.bottom_contains(y)) == [True, True, False]
    assert s.bottom_volume == pytest.approx(3.0)
    s5 = capped_cylinder_shape(5, 1.0)
    assert s5.bottom_volume == pytest.approx(math.pi + 4 * math.pi / 3)


def test_bottom_sampling_statistics():
    # capped cylinder bottom: per-sample membership holds and the axis
    # marginal has the right body/cap split
    s = capped_cylinder_shape(4, 2.0)
    y = s.sample_bottom(rng_for(11), 200_000)
    assert np.all(s.bottom_contains(y))
    body = np.abs(y[:, -1]) <= 1.0
    frac = body.mean()
    expect = (ball_volume(1) * 2.0) / s.bottom_volume
    assert abs(frac - expect) < 4 * math.sqrt(expect * (1 - expect) / 200_000)


@pytest.mark.parametrize("dim, length", [(3, 1.0), (5, 1.5)])
def test_capped_bottom_cap_share_and_axis_moment(dim, length):
    # each point picks the body or the caps by volume, then draws only there
    s = capped_cylinder_shape(dim, length)
    n = 400_000
    y = s.sample_bottom(rng_for(14 + dim), n)
    assert y.shape == (n, dim - 2)
    assert np.all(s.bottom_contains(y))
    m = dim - 2
    v_body = ball_volume(m - 1) * length
    v_caps = ball_volume(m)
    t = y[:, -1]
    share = v_caps / (v_body + v_caps)
    in_caps = np.abs(t) > length / 2
    assert abs(in_caps.mean() - share) < 4 * math.sqrt(share * (1 - share) / n)
    # E[t^2]: the body gives v_(m-1) L^3 / 12; a cap point is s + sign(s) L/2
    # for s the last coordinate of a unit-ball point, and over the ball
    # int s^2 = v_m / (m + 2), int |s| = 2 v_(m-1) / (m + 1)
    moment = (ball_volume(m - 1) * length ** 3 / 12
              + ball_volume(m) / (m + 2)
              + length * 2 * ball_volume(m - 1) / (m + 1)
              + length ** 2 / 4 * ball_volume(m)) / (v_body + v_caps)
    t_sq = t * t
    assert abs(t_sq.mean() - moment) < 4 * t_sq.std() / math.sqrt(n)


def test_surface_sampling_matches_sphere_sampler():
    # hat-box sphere sampling agrees in law with Gaussian normalization
    s = sphere_shape(3)
    pts = s.sample_surface(rng_for(12), 100_000)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-9
    ref = sample_unit_sphere(3, rng_for(13), 100_000)
    for axis in range(3):
        res = stats.ks_2samp(pts[:, axis], ref[:, axis])
        assert res.pvalue > 1e-3


def test_bounding_halfwidth_examples():
    assert bounding_halfwidth(braid(2)).halfwidth == pytest.approx(1.0)
    assert bounding_halfwidth(coxeter_d(2)).halfwidth == pytest.approx(1.0)
    assert bounding_halfwidth(braid(3)).halfwidth == pytest.approx(2.0)


def test_bounding_box_contains_full_rank_regions():
    # sample a much larger box; every full-rank point must land inside
    # [-M, M]: no escapes in 10^7 trials across the three arrangements
    from polygas.matroid import MatroidView
    trials_per_chunk = 500_000
    for arr in (braid(3), coxeter_d(2), coxeter_d(3)):
        box = bounding_halfwidth(arr)
        view = MatroidView(arr)
        lookup = {}
        for chunk in range(7):
            rng = RNGStream(17, chunk).generator()
            pts = rng.uniform(-3 * box.halfwidth, 3 * box.halfwidth,
                              (trials_per_chunk, arr.ambient_dim, 1))
            masks = arr.gamma_masks(pts)
            for m in np.unique(masks):
                if int(m) not in lookup:
                    lookup[int(m)] = view.is_spanning(int(m))
            keep = np.array([lookup[int(m)] for m in masks])
            inside = np.abs(pts[keep]) <= box.halfwidth + 1e-12
            assert inside.all()


def test_bounding_halfwidth_checks_radii_override():
    with pytest.raises(ArrangementError):
        bounding_halfwidth(braid(3), radii=[1.0, 1.0, 1.0, 9.0])
    with pytest.raises(ArrangementError):
        bounding_halfwidth(braid(3), radii=[1.0, 0.0, 1.0])
