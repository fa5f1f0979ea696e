"""Acceptance suite: one criterion per test (criterion 3 parametrized per
case), each printing a PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Sample sizes and tolerances are pinned here; nothing is deferred to later
calibration.
"""

import math
import random
import time
import numpy as np
import pytest
from scipy import stats

from oracles import hard_rod_pressure_coefficient
from polygas.arrangement import (braid, coxeter_b, coxeter_d, dowling,
                                 threshold, widom_rowlinson)
from polygas.dimred import balanced_weight_check, check_asa_dr, check_dr
from polygas.geometry import (RNGStream, capped_cylinder_shape, cylinder_shape,
                              sample_unit_sphere)
from polygas.matroid import LinearOrder, MatroidView, popcount
from polygas.mayer import MCEstimate, pressure_coefficient, z_score
from polygas.polymer import (planar_invariance_check, project_expectation,
                             safe_projection_expectation, volume_mc)
from polygas.signed_graphs import (balanced_liftings, dn_mask_to_graph,
                                   is_dn_base, is_dn_independent)
from test_signed_graphs import connected_graphs, count_balanced_signings_fast

N_FULL = 1_000_000
_dr_times = []


def report(criterion, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {marker} {detail}")


# -- 1. exact combinatorics ---------------------------------------------------

def test_criterion_1_exact_combinatorics():
    start = time.perf_counter()
    ok = True
    details = []
    for m in range(2, 7):
        chi = MatroidView(braid(m)).chi_at_zero()
        expect = (-1) ** (m - 1) * math.factorial(m - 1)
        ok &= chi == expect
        details.append(f"chi(braid {m})={chi}")
    shipped = [braid(2), braid(3), braid(4), braid(5), coxeter_d(2),
               coxeter_d(3), coxeter_b(2), coxeter_b(3), threshold(3),
               threshold(4), dowling(2, 3), widom_rowlinson([2, 2])]
    rng = random.Random(0)
    for arr in shipped:
        assert arr.size <= 10
        view = MatroidView(arr)
        chi = view.chi_at_zero()
        for _ in range(20):
            order = LinearOrder.shuffled(arr.size, rng)
            ok &= view.safe_base_count(order=order) == \
                (-1) ** arr.ambient_dim * chi
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, ok, f"({'; '.join(details)}; 20 orders x {len(shipped)} "
                  f"arrangements; {elapsed:.1f}s)")
    assert ok


# -- 2. planar radius invariance ------------------------------------------------

@pytest.mark.parametrize("arr,radii_list", [
    (braid(3), [(1, 1, 1), (1, 2, 5), (2, 0.5, 1)]),
    (coxeter_b(2), [(1, 1, 1, 1), (3, 1, 1, 2), (0.5, 2, 1, 1)]),
    (coxeter_d(2), [(1, 1), (1, 2), (4, 0.25)]),
], ids=["braid3", "coxeterB2", "coxeterD2"])
def test_criterion_2_planar_invariance(arr, radii_list):
    rep = planar_invariance_check(arr, radii_list, N_FULL, 20)
    detail = (f"{arr.family}(n={arr.ambient_dim}): target={rep.target:.2f} "
              f"means={[f'{e.mean:.2f}' for e in rep.estimates]} "
              f"max|z| pairwise={rep.max_pairwise_z:.2f}")
    report(2, rep.passed, detail)
    assert rep.passed


# -- 3. dimensional reduction ---------------------------------------------------

@pytest.mark.parametrize("maker,d", [
    (lambda: braid(2), 1),
    (lambda: braid(3), 0),
    (lambda: braid(3), 1),
    (lambda: coxeter_d(2), 0),
    (lambda: coxeter_d(2), 1),
    (lambda: coxeter_b(2), 0),
], ids=["braid2-d1", "braid3-d0", "braid3-d1", "coxeterD2-d0",
        "coxeterD2-d1", "coxeterB2-d0"])
def test_criterion_3_dimensional_reduction(maker, d):
    arr = maker()
    rep = check_dr(arr, d, N_FULL, 30)
    _dr_times.append(rep.wall_time)
    detail = (f"{arr.family} d={d}: lhs={rep.lhs.mean:.3f}+-{rep.lhs.stderr:.3f} "
              f"rhs={rep.rhs.mean:.3f}+-{rep.rhs.stderr:.3f} z={rep.z:.2f}")
    report(3, rep.passed, detail)
    assert rep.passed


def test_criterion_3_runtime_budget():
    total = sum(_dr_times)
    ok = total < 1800.0
    report(3, ok, f"(total DR wall time {total:.1f}s < 30 min)")
    assert ok


# -- 4. hard-rod cross-check ------------------------------------------------------

def test_criterion_4_hard_rod_oracle_and_estimate():
    oracle = hard_rod_pressure_coefficient(3)
    oracle_ok = abs(float(oracle) - 9.0) <= 1e-6
    est = pressure_coefficient(MatroidView(braid(3)), 1, N_FULL, 40)
    z = z_score(est, MCEstimate(9.0, 0.0, 0, 0, 1))
    ok = oracle_ok and abs(z) < 4.0
    report(4, ok, f"(oracle={oracle} exact; estimate={est.mean:.4f}"
                  f"+-{est.stderr:.4f}, z={z:.2f})")
    assert ok


# -- 5. hat-box projection uniformity ------------------------------------------------

@pytest.mark.parametrize("dim", [3, 4, 5])
def test_criterion_5_projection_uniformity(dim):
    rng = RNGStream(50, dim).generator()
    pts = sample_unit_sphere(dim, rng, N_FULL)
    y = pts[:, 2:]            # the hat-box projection onto the bottom
    m = dim - 2
    if m == 1:
        res = stats.kstest(y[:, 0], "uniform", args=(-1, 2))
    else:
        radial = np.linalg.norm(y, axis=1) ** m
        res = stats.kstest(radial, "uniform")
    ok = res.pvalue > 1e-3
    report(5, ok, f"(D={dim}: N=10^6 KS p={res.pvalue:.4f} > 1e-3)")
    assert ok


# -- 6. projection laws --------------------------------------------------------------

def test_criterion_6_projection_laws():
    rep = project_expectation(braid(2), 1, "norm_sq", N_FULL, 60)
    target = MCEstimate(4 * math.pi / 3, 0.0, 0, 0, 1)
    z_poly = z_score(rep.polymer_side, target)
    z_mmc = z_score(rep.mmc_side, target)
    ok = abs(z_poly) < 4 and abs(z_mmc) < 4
    order = LinearOrder.default(3)
    zs = []
    for g in ("const1", "norm_sq"):
        chi_path = project_expectation(braid(3), 1, g, N_FULL, 61)
        safe_path = safe_projection_expectation(braid(3), 1, g, order,
                                                N_FULL, 62)
        z = z_score(safe_path, chi_path.mmc_side)
        zs.append(z)
        ok &= abs(z) < 4
    report(6, ok, f"(braid2 y^2: z_poly={z_poly:.2f} z_mmc={z_mmc:.2f} vs 4pi/3; "
                  f"braid3 safe-vs-chi z={[f'{z:.2f}' for z in zs]})")
    assert ok


# -- 7. signed graphs -----------------------------------------------------------------

def test_criterion_7_signed_graphs():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for edges in connected_graphs(n):
            ok &= count_balanced_signings_fast(n, edges) == \
                balanced_liftings(n, edges)
    for n in range(2, 5):
        arr = coxeter_d(n)
        view = MatroidView(arr)
        for mask in range(1 << arr.size):
            g = dn_mask_to_graph(n, mask)
            independent = view.rank_of(mask) == popcount(mask)
            ok &= independent == is_dn_independent(g)
            ok &= view.is_base(mask) == is_dn_base(g)
    for n in range(2, 6):
        ok &= balanced_weight_check(n)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(7, ok, f"(liftings n<=6 exhaustive; base dictionary n<=4; "
                  f"balanced weights n<=5; {elapsed:.1f}s)")
    assert ok


# -- 8. warped surfaces ----------------------------------------------------------------

def test_criterion_8_asa_reduction():
    length = 1.0
    cyl = check_asa_dr(braid(2), [cylinder_shape(3, length)], 1, N_FULL, 80)
    cap = check_asa_dr(braid(2), [capped_cylinder_shape(3, length)], 1,
                       N_FULL, 81)
    closed = 2 * math.pi * (length + 2)
    closed_ok = abs(cap.rhs.mean - closed) <= 1e-9 * closed
    ok = cyl.passed and cap.passed and closed_ok
    report(8, ok, f"(cylinder z={cyl.z:.2f}; capped z={cap.z:.2f}, "
                  f"rhs={cap.rhs.mean:.4f} vs 2pi(L+2)={closed:.4f})")
    assert ok


# -- 9. engineering -------------------------------------------------------------------

def test_criterion_9_determinism_and_merge():
    view = MatroidView(braid(3))
    runs = [pressure_coefficient(view, 1, 300_000, 90, workers=w)
            for w in (1, 4, 8)]
    same_pressure = all((r.mean, r.stderr, r.n_samples) ==
                        (runs[0].mean, runs[0].stderr, runs[0].n_samples)
                        for r in runs)
    vols = [volume_mc(coxeter_b(2), 3, 300_000, 91, workers=w)
            for w in (1, 4, 8)]
    same_volume = all((v.mean, v.stderr) == (vols[0].mean, vols[0].stderr)
                      for v in vols)
    rng = np.random.default_rng(9)
    merge_ok = True
    for _ in range(200):
        parts = [MCEstimate(float(rng.normal()), float(abs(rng.normal())) + 1e-6,
                            int(rng.integers(2, 5000)), 0, 1) for _ in range(3)]
        a, b, c = parts
        left, right = a.merge(b).merge(c), a.merge(b.merge(c))
        merge_ok &= math.isclose(left.mean, right.mean,
                                 rel_tol=1e-9, abs_tol=1e-12)
        merge_ok &= math.isclose(left.stderr, right.stderr,
                                 rel_tol=1e-9, abs_tol=1e-12)
    ok = same_pressure and same_volume and merge_ok
    report(9, ok, f"(workers 1/4/8 identical: pressure={same_pressure} "
                  f"volume={same_volume}; merge associativity={merge_ok})")
    assert ok
