import csv
import math

import numpy as np
import pytest

from polygas.arrangement import (ArrangementError, braid, coxeter_b, coxeter_d,
                                 dowling)
from polygas.geometry import (RNGStream, capped_cylinder_shape, cylinder_shape,
                              sphere_area, sphere_shape)
from polygas.matroid import LinearOrder, MatroidError, MatroidView, mask_elements
from polygas.mayer import z_score
from polygas.polymer import (_ball_sides, _one_base_block, asa_volume_mc,
                             dump_samples_csv,
                             planar_invariance_check, polymer_svg,
                             project_expectation, safe_projection_expectation,
                             sample_for_base, volume_mc)


def rng_for(i=0):
    return RNGStream(99, i).generator()


def agree(a, b, k=4.0):
    return abs(z_score(a, b)) < k


def close_to(est, target, k=4.0):
    spread = max(est.stderr, 1e-12 * max(abs(target), 1.0))
    return abs(est.mean - target) <= k * spread


def test_sample_braid2_always_accepted_on_sphere():
    arr = braid(2)
    rng = rng_for(1)
    for _ in range(50):
        s = sample_for_base(arr, 0b1, 3, rng)
        assert s.accepted
        assert np.linalg.norm(s.x[0]) == pytest.approx(1.0, abs=1e-9)


def test_sample_braid3_acceptance_two_thirds():
    # base {x1-x2, x1-x3} at D=2: accepted iff the two unit directions differ
    # by more than pi/3, probability 2/3
    arr = braid(3)
    base = 0b011
    rng = rng_for(2)
    hits = sum(sample_for_base(arr, base, 2, rng).accepted for _ in range(3000))
    p = hits / 3000
    assert abs(p - 2 / 3) < 4 * math.sqrt((2 / 3) * (1 / 3) / 3000)


def test_sample_coxeter_d2_always_accepted():
    arr = coxeter_d(2)
    rng = rng_for(3)
    assert all(sample_for_base(arr, 0b11, 2, rng).accepted for _ in range(200))


def test_accepted_samples_satisfy_constraints():
    arr = braid(3)
    rng = rng_for(4)
    found = 0
    for base in (0b011, 0b101, 0b110):
        for _ in range(200):
            s = sample_for_base(arr, base, 3, rng)
            vals = arr.values(s.x[None])[0]
            for e in mask_elements(base):
                assert abs(np.linalg.norm(vals[e]) - arr.radii[e]) < 1e-9
            if s.accepted:
                found += 1
                for e in mask_elements(arr.ground_mask & ~base):
                    assert np.linalg.norm(vals[e]) > arr.radii[e]
    assert found > 0


def test_volume_braid2_sphere_exact():
    est = volume_mc(braid(2), 3, 5_000, 0)
    assert est.mean == pytest.approx(4 * math.pi, rel=1e-12)
    assert est.stderr < 1e-12


def test_volume_braid3_planar():
    est = volume_mc(braid(3), 2, 300_000, 1)
    assert close_to(est, 2 * (2 * math.pi) ** 2)


def test_volume_coxeter_d2_planar():
    est = volume_mc(coxeter_d(2), 2, 10_000, 2)
    assert est.mean == pytest.approx((2 * math.pi) ** 2, rel=1e-12)


def test_volume_worker_independence():
    a = volume_mc(braid(3), 3, 120_000, 5, workers=1)
    b = volume_mc(braid(3), 3, 120_000, 5, workers=4)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_rotation_invariance():
    # volume estimates from rotated direction draws agree with plain draws:
    # the sampler applied after a fixed rotation of every direction sees the
    # same acceptance law
    arr = braid(3)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    n = 60_000
    rng = rng_for(6)
    weight = sphere_area(2) ** 2
    means = []
    for rotate in (False, True):
        total = 0.0
        for base, a in ((0b011, [[1, -1], [1, 0]]),
                        (0b101, [[1, -1], [0, 1]]),
                        (0b110, [[1, 0], [0, 1]])):
            u = rng.standard_normal((n, 2, 2))
            u /= np.linalg.norm(u, axis=2, keepdims=True)
            if rotate:
                u = u @ rot.T
            a_inv = np.linalg.inv(np.array(a, dtype=float))
            x = np.einsum("ij,cjd->cid", a_inv, u)
            outside = [e for e in range(3) if not base >> e & 1]
            vals = np.einsum("en,cnd->ced", arr.coeff[outside], x)
            acc = np.all(np.sum(vals * vals, axis=2) > 1.0, axis=1)
            total += weight * acc.mean()
        means.append(total)
    # both estimate 2 (2 pi)^2; allow a 4-sigma band for the difference
    spread = 4 * weight * math.sqrt(2 * 3 * (2 / 3) * (1 / 3) / n)
    assert abs(means[0] - means[1]) < spread


def test_planar_invariance_braid3():
    rep = planar_invariance_check(braid(3), [(1, 1, 1), (1, 2, 5)], 150_000, 7)
    assert rep.passed
    assert rep.target == pytest.approx(2 * (2 * math.pi) ** 2)


def test_planar_invariance_braid2_any_radius_exact():
    for r in (0.5, 1.0, 3.0):
        est = volume_mc(braid(2), 2, 2_000, 8, radii=(r,))
        assert est.mean == pytest.approx(2 * math.pi, rel=1e-12)


def test_planar_invariance_coxeter_b2():
    rep = planar_invariance_check(coxeter_b(2), [(1, 1, 1, 1), (3, 1, 1, 2)],
                                  200_000, 9)
    assert rep.passed
    assert rep.target == pytest.approx(3 * (2 * math.pi) ** 2)


def test_project_const_reduces_to_volume_identity():
    arr = braid(2)
    rep = project_expectation(arr, 1, "const1", 100_000, 10)
    assert rep.passed
    assert close_to(rep.polymer_side, 4 * math.pi)
    assert close_to(rep.mmc_side, 4 * math.pi)


def test_project_braid2_second_moment():
    # sphere z^2 moment: (4 pi) / 3 on the polymer side; the flat side gives
    # (-2 pi) * (-int_{-1}^{1} y^2 dy) = 4 pi / 3 as well
    rep = project_expectation(braid(2), 1, "norm_sq", 300_000, 11)
    target = 4 * math.pi / 3
    assert close_to(rep.polymer_side, target)
    assert close_to(rep.mmc_side, target)
    assert rep.passed


def test_project_braid2_halfspace():
    rep = project_expectation(braid(2), 1, "indicator_halfspace", 200_000, 12)
    assert close_to(rep.polymer_side, 2 * math.pi)
    assert close_to(rep.mmc_side, 2 * math.pi)


def test_safe_projection_braid2_matches_mmc_side():
    arr = braid(2)
    rep = project_expectation(arr, 1, "norm_sq", 150_000, 13)
    safe = safe_projection_expectation(arr, 1, "norm_sq",
                                       LinearOrder.default(1), 150_000, 13)
    assert agree(safe, rep.mmc_side)


def test_safe_projection_refuses_short_order():
    with pytest.raises(MatroidError, match="permutation"):
        safe_projection_expectation(braid(3), 1, "const1", LinearOrder([0, 1]),
                                    1000, 0)


def test_safe_projection_braid3_two_g_choices():
    arr = braid(3)
    order = LinearOrder.default(3)
    for g in ("const1", "norm_sq"):
        rep = project_expectation(arr, 1, g, 250_000, 14)
        safe = safe_projection_expectation(arr, 1, g, order, 250_000, 15)
        assert agree(safe, rep.mmc_side)
        assert agree(safe, rep.polymer_side)


def test_safe_projection_const_matches_pressure_scale():
    arr = braid(3)
    est = safe_projection_expectation(arr, 1, "const1",
                                      LinearOrder.default(3), 300_000, 16)
    assert close_to(est, 9 * (2 * math.pi) ** 2)


def test_asa_volume_cylinder_exact():
    est = asa_volume_mc(braid(2), [cylinder_shape(3, 1.0)], 4_000, 17)
    assert est.mean == pytest.approx(2 * math.pi, rel=1e-12)


def test_asa_volume_sphere_matches_volume_mc():
    a = asa_volume_mc(braid(2), [sphere_shape(3)], 4_000, 18)
    b = volume_mc(braid(2), 3, 4_000, 18)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)


def test_asa_volume_capped():
    est = asa_volume_mc(braid(2), [capped_cylinder_shape(3, 1.0)], 4_000, 19)
    assert est.mean == pytest.approx(2 * math.pi * 1.0 + 4 * math.pi, rel=1e-12)


def test_asa_volume_refuses_cyclotomic_arrangements():
    with pytest.raises(ValueError, match="real arrangement"):
        asa_volume_mc(dowling(2, 3), [sphere_shape(4)] * 3, 3_000, 0)


def test_asa_volume_with_rejection():
    # braid(3) with spheres must reproduce the plain polymer volume
    shapes = [sphere_shape(4)] * 3
    a = asa_volume_mc(braid(3), shapes, 150_000, 20)
    b = volume_mc(braid(3), 4, 150_000, 21)
    assert agree(a, b)


def test_dump_and_svg(tmp_path):
    csv_path = tmp_path / "samples.csv"
    dump_samples_csv(csv_path, braid(3), 2, 20, 0)
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("base_mask,accepted")
    assert len(text) == 1 + 3 * 20
    svg_path = tmp_path / "poly.svg"
    polymer_svg(svg_path, braid(3), seed=1)
    assert svg_path.read_text().startswith("<svg")


def test_dump_samples_csv_interleaves_complex_coordinates(tmp_path):
    # dowling(2, 3) at dim 4: entry k of a complex coordinate holds the real
    # coordinates (2k, 2k + 1), so column x{i}_{j} is the real part of
    # x[i, j // 2] for even j and its imaginary part for odd j
    arr, dim, rows = dowling(2, 3), 4, 5
    path = tmp_path / "samples.csv"
    dump_samples_csv(path, arr, dim, rows, 0)
    with open(path, newline="") as fh:
        header, *body = list(csv.reader(fh))
    assert header == ["base_mask", "accepted"] + [
        f"x{i}_{j}" for i in range(arr.ambient_dim) for j in range(dim)]
    table = MatroidView(arr).base_table
    sides = _ball_sides(arr, table, dim, arr.radii)
    expected = []
    for b_index, base_mask in enumerate(table.masks.tolist()):
        rng = RNGStream(0, b_index).generator()
        accepted, x = _one_base_block(b_index, rows, rng, sides)
        for row in range(rows):
            coords = [x[row, i, j // 2].imag if j % 2 else x[row, i, j // 2].real
                      for i in range(arr.ambient_dim) for j in range(dim)]
            expected.append([str(base_mask), str(int(accepted[row]))]
                            + [f"{v:.9g}" for v in coords])
    assert body == expected


def test_projection_rejects_non_finite_g():
    bad = lambda y: np.full(y.shape[0], math.inf)
    with pytest.raises(ValueError, match="non-finite"):
        project_expectation(braid(2), 1, bad, 2_000, 0)


def test_polymer_samplers_refuse_fewer_samples_than_bases():
    # braid(4) has 16 bases: 5 samples cannot give each base one
    arr = braid(4)
    with pytest.raises(ValueError, match="16 bases"):
        volume_mc(arr, 3, 5, 0)
    with pytest.raises(ValueError, match="16 bases"):
        project_expectation(arr, 1, "const1", 5, 0)
    with pytest.raises(ValueError, match="16 bases"):
        asa_volume_mc(arr, [cylinder_shape(3, 1.0)] * arr.size, 5, 0)
    assert volume_mc(arr, 3, 16, 0).n_samples == 16


def test_planar_invariance_refuses_negative_radii():
    with pytest.raises(ArrangementError):
        planar_invariance_check(braid(3), [(1, 1, 1), (-2, -2, -2)], 3_000, 0)


def test_volume_refuses_extra_radii():
    with pytest.raises(ArrangementError):
        volume_mc(braid(3), 2, 3_000, 0, radii=(1, 1, 1, 7, 9))


def test_sampler_radii_overrides_checked(tmp_path):
    arr = braid(3)
    with pytest.raises(ArrangementError):
        sample_for_base(arr, 0b011, 2, rng_for(5), radii=(1, 1, 1, 2))
    with pytest.raises(ArrangementError):
        dump_samples_csv(tmp_path / "s.csv", arr, 2, 5, 0, radii=(1, 1, 1, 2))
