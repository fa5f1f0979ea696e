"""The stratified polymer kernel against its slow path, the per-base loop
`oracles.per_base_polymer_estimate`: same estimator, independent streams,
so the two must agree at |z| < 4.  Also its determinism, exact single-base
case, per-base variance rule, and the strata it skips as provably empty."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import polygas.mayer as mayer
from oracles import ball_sides, per_base_polymer_estimate, surface_sides
from polygas import (MatroidView, asa_volume_mc, braid, capped_cylinder_shape,
                     coxeter_b, coxeter_d, custom, cylinder_shape, dowling,
                     project_expectation, sphere_area, surface_measure_total,
                     volume_mc, z_score)
from polygas.matroid import mask_elements
from polygas.mayer import BLOCK, CHUNK
from polygas.polymer import live_base_table

# see test_run_views_equal_gathered_products
ULPS = 4


def oracle_volume(view, dim, n_samples, seed, radii=None):
    arr = view.arrangement
    radii = arr.radii if radii is None else radii
    weight = sphere_area(dim) ** arr.ambient_dim
    return per_base_polymer_estimate(view, n_samples, seed,
                                     *ball_sides(arr, dim, radii),
                                     lambda _: weight)


def assert_agree(est, ref):
    z = z_score(est, ref)
    assert abs(z) < 4.0, (est, ref, z)
    assert est.n_samples == ref.n_samples
    # the same stratified estimator: its standard error must agree too
    assert est.stderr == pytest.approx(ref.stderr, rel=0.1)


def assert_agree_live(est, ref, n, view, radii):
    """est samples only the strata that can accept at these radii, the
    oracle every one: the same mean, n // live rows per live base, and the
    oracle's standard error with each live stratum's budget grown by
    all / live."""
    live = live_base_table(view, radii).masks.size
    bases = view.base_table.masks.size
    z = z_score(est, ref)
    assert abs(z) < 4.0, (est, ref, z)
    assert est.n_samples == (n // live) * live
    assert est.stderr == pytest.approx(ref.stderr * math.sqrt(live / bases),
                                       rel=0.1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_braid_dim3_matches_per_base(m):
    view = MatroidView(braid(m))
    n = 2 ** 17
    assert_agree(volume_mc(view, 3, n, 40), oracle_volume(view, 3, n, 41))


@pytest.mark.parametrize("arr", [braid(4), coxeter_b(3)], ids=["braid4", "coxeterB3"])
def test_planar_radii_match_per_base(arr):
    view = MatroidView(arr)
    size = arr.size
    for i, radii in enumerate([tuple(1.0 for _ in range(size)),
                               tuple(1.0 + 0.5 * e for e in range(size)),
                               tuple(2.0 if e % 2 else 0.5 for e in range(size))]):
        est = volume_mc(view, 2, 2 ** 17, 42 + 2 * i, radii=radii)
        assert_agree_live(est, oracle_volume(view, 2, 2 ** 17, 43 + 2 * i, radii),
                          2 ** 17, view, radii)


def test_coxeter_b3_dim3_with_empty_strata_matches_per_base():
    view = MatroidView(coxeter_b(3))
    est = volume_mc(view, 3, 2 ** 17, 50)
    ref = oracle_volume(view, 3, 2 ** 17, 51)
    assert_agree_live(est, ref, 2 ** 17, view, view.arrangement.radii)
    # some bases never accept: their strata add nothing to either side
    arr = view.arrangement
    draw, outside = ball_sides(arr, 3, arr.radii)
    rng = np.random.default_rng(0)
    empty = 0
    for base, inv in zip(view.bases(), view.base_table.inv):
        x = inv @ draw(rng, 2000, list(mask_elements(base)))
        out = [e for e in range(arr.size) if not base >> e & 1]
        empty += not outside(arr.coeff[out] @ x, out).any()
    assert empty > 0


def test_dowling_complex_matches_per_base():
    view = MatroidView(dowling(2, 3))
    assert_agree(volume_mc(view, 4, 2 ** 17, 52), oracle_volume(view, 4, 2 ** 17, 53))


@pytest.mark.parametrize("arr, shape", [(braid(3), capped_cylinder_shape(3, 1.0)),
                                        (braid(4), cylinder_shape(3, 1.0))],
                         ids=["braid3-capped", "braid4-cylinder"])
def test_asa_volume_matches_per_base(arr, shape):
    view = MatroidView(arr)
    shapes = [shape] * arr.size
    est = asa_volume_mc(view, shapes, 2 ** 17, 54)

    def base_weight(base):
        return math.prod(surface_measure_total(shapes[e])
                         for e in mask_elements(base))

    ref = per_base_polymer_estimate(view, 2 ** 17, 55, *surface_sides(shapes),
                                    base_weight)
    assert_agree(est, ref)


def test_asa_volume_mixed_shapes_matches_per_base():
    # two distinct shapes: the draw scatters per shape and the acceptance
    # test picks each value's own shape
    arr = braid(3)
    shapes = [capped_cylinder_shape(3, 1.0), cylinder_shape(3, 2.0),
              capped_cylinder_shape(3, 1.0)]
    view = MatroidView(arr)

    def base_weight(base):
        return math.prod(surface_measure_total(shapes[e])
                         for e in mask_elements(base))

    est = asa_volume_mc(view, shapes, 2 ** 17, 56)
    ref = per_base_polymer_estimate(view, 2 ** 17, 57, *surface_sides(shapes),
                                    base_weight)
    assert_agree(est, ref)


def test_asa_volume_many_distinct_shapes_matches_per_base():
    # 63 distinct shapes (as many as a base mask has bits), more choices
    # than numpy 1.x takes in one np.choose call (31), on a rank-2
    # arrangement of 63 lines in three directions: 123 bases of 133 rows,
    # ~62 runs per block and one cut at the block edge
    normals = [(1, 0), (0, 1)] + [(Fraction(8 + k, 8),) * 2 for k in range(61)]
    arr = custom(normals)
    shapes = [(capped_cylinder_shape if k % 2 else cylinder_shape)(3, 0.5 + k / 32)
              for k in range(63)]
    view = MatroidView(arr)
    assert len(set(shapes)) == 63 and view.base_table.masks.size == 123

    def base_weight(base):
        return math.prod(surface_measure_total(shapes[e])
                         for e in mask_elements(base))

    est = asa_volume_mc(view, shapes, 2 ** 14, 60)
    ref = per_base_polymer_estimate(view, 2 ** 14, 61, *surface_sides(shapes),
                                    base_weight)
    assert est.mean > 0
    assert_agree(est, ref)


def test_projection_g_path_matches_per_base():
    arr = coxeter_b(2)
    report = project_expectation(arr, 1, "norm_sq", 2 ** 17, 58)
    view = MatroidView(arr)
    weight = sphere_area(3) ** arr.ambient_dim
    ref = per_base_polymer_estimate(
        view, 2 ** 17, 59, *ball_sides(arr, 3, arr.radii), lambda _: weight,
        g=lambda x: np.sum(x[:, :, 2:] ** 2, axis=(1, 2)))
    # one of coxeter_b(2)'s six strata is empty at unit radii
    assert_agree_live(report.polymer_side, ref, 2 ** 17, view, arr.radii)


@pytest.mark.parametrize("arr, dim", [(braid(6), 3), (dowling(2, 3), 4)],
                         ids=["braid6", "dowling2_3"])
def test_workers_bit_identical(arr, dim):
    view = MatroidView(arr)
    n = 3 * 2 ** 16          # several chunks, so the pool has work to split
    a = volume_mc(view, dim, n, 60, workers=1)
    b = volume_mc(view, dim, n, 60, workers=2)
    assert (a.mean, a.stderr, a.n_samples) == (b.mean, b.stderr, b.n_samples)


def test_single_base_is_exact():
    arr = coxeter_d(2)
    assert len(list(MatroidView(arr).bases())) == 1
    est = volume_mc(arr, 3, 3 * 2 ** 16, 61, workers=2)
    assert est.mean == pytest.approx((4 * math.pi) ** 2, rel=1e-12)
    assert est.stderr == 0.0


def test_one_sample_per_base_has_finite_stderr():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = volume_mc(braid(4), 3, 16, 0)
    assert est.n_samples == 16
    assert math.isfinite(est.mean) and math.isfinite(est.stderr)


def test_one_scheduled_run_per_volume(monkeypatch):
    calls = []
    original = mayer.map_chunks

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(mayer, "map_chunks", counting)
    volume_mc(braid(5), 3, 2 ** 14, 0)
    asa_volume_mc(braid(4), [cylinder_shape(3, 1.0)] * 6, 2 ** 14, 0)
    # one run over all rows, not one per base (braid 5: 125, braid 4: 16)
    assert calls == [2 ** 14 // 125 * 125, 2 ** 14]


def _run_split_cases(count):
    """(row0, per_base, rows) blocks of a stratified list of `count` bases:
    per_base = 1, per_base > BLOCK, a block inside one run, the short last
    block of a chunk, and random blocks."""
    per_base = CHUNK // count + 7           # the list ends inside chunk 2
    last = CHUNK + (per_base * count - CHUNK - 1) // BLOCK * BLOCK
    cases = [(0, 1, min(BLOCK, count)),
             (BLOCK, BLOCK + 3, BLOCK),              # two partial runs
             (5, BLOCK + 3, 100),                    # inside one run
             (7, 10, 3),                             # inside one short run
             (last, per_base, per_base * count - last)]
    rng = np.random.default_rng(7)
    for _ in range(40):
        per_base = int(rng.integers(1, 200))
        total = per_base * count
        row0 = int(rng.integers(0, total))
        cases.append((row0, per_base,
                      int(rng.integers(1, min(BLOCK, total - row0) + 1))))
    return cases


@pytest.mark.parametrize("arr", [braid(3), braid(5), coxeter_b(3), dowling(2, 3)],
                         ids=["braid3", "braid5", "coxeterB3", "dowling2_3"])
def test_run_views_equal_gathered_products(arr):
    # the stacked run products must equal the per-row gathered ones: every
    # estimate rests on it.  Bit for bit for real maps, on every run length
    # (a one-row run is the per-row product itself).  Complex maps may round
    # differently, so there the bound is ULPS units in the last place of
    # |maps[b]| @ |h|.
    table = MatroidView(arr).base_table
    count = table.masks.size
    rng = np.random.default_rng(8)
    dtype = table.inv.dtype
    for row0, per_base, rows in _run_split_cases(count):
        runs = mayer._Runs(row0, rows, per_base)
        b = np.arange(row0, row0 + rows) // per_base
        edges = [edge for lo, hi, _, _ in runs.parts for edge in (lo, hi)]
        assert edges[0] == 0 and edges[-1] == rows and len(runs.parts) <= 3
        assert edges[1:-1:2] == edges[2:-1:2]     # the parts tile the block
        assert np.array_equal(
            np.concatenate([np.repeat(np.arange(base, base + k), (hi - lo) // k)
                            for lo, hi, base, k in runs.parts]), b)
        h = rng.standard_normal((table.inv.shape[1], rows, 2))
        if dtype == complex:
            h = h + 1j * rng.standard_normal(h.shape)
        h_rows = np.ascontiguousarray(h.swapaxes(0, 1))
        for maps in (table.to_out, table.inv):
            out = np.empty((maps.shape[1], rows, 2), dtype)
            got = mayer._matmul_runs(runs, maps, h, out)
            assert got is out
            got = got.swapaxes(0, 1)
            want = maps[b] @ h_rows
            if dtype == complex:
                scale = np.abs(maps[b]) @ np.abs(h_rows)
                assert np.all(np.abs(got - want) <= ULPS * np.spacing(scale))
            else:
                assert np.array_equal(got, want)
        # each part's view is a view of the block's rows, k runs of them
        for _, k, part in runs.split(h):
            assert np.shares_memory(part, h) and part.shape[1] == k
