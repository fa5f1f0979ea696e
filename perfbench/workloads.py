"""The four benchmark workloads: their inputs, one timed pass each, and the
reference values every output is checked against.

A workload is built once by its ``setup`` function (the arrangements and
shapes it needs) and then run pass after pass.  Each pass makes the same
sequence of public ``polygas`` calls with fresh Monte Carlo seeds and returns
one ``Call`` record per call: its wall time, the estimates it produced and,
for the planar check and the exact queries, whether the exact parts of the
result are right.

References come in two kinds.  Closed forms (hard-rod coefficients, chi(0)
and the planar law, base counts) are computed here.  Quantities with no
closed form use a mean and standard error from a long run, stored in
``references.json`` and produced by ``make_references.py``, which runs the
same pass functions with ``scale`` times the samples.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np
import polygas as pg

DR_SAMPLES = 3 * 65_536     # three full chunks of the chunked runner
# braid(6) gets 4x: its box side has the noisiest stderr of the suite, and
# its time is mostly exact-layer work, so 4x the samples cost only ~1.5x.
DR_BRAID6_FACTOR = 4
PLANAR_SAMPLES = 400_000
WARP_SAMPLES = 300_000

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")


@dataclass
class Call:
    """One timed library call of a pass."""

    name: str
    seconds: float
    estimates: list = field(default_factory=list)   # [(reference key, MCEstimate)]
    exact_ok: bool | None = None                     # exact parts of a result
    dr_case: bool = False                            # a check_dr call


def _timed(before_call, fn, *args, **kwargs):
    """Call fn and time it.  before_call, when given, runs first, untimed:
    the benchmark worker times its host-speed calibration there."""
    if before_call is not None:
        before_call()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def hard_rod_sides(m: int) -> float:
    """Both sides of the d = 1 identity for braid(m): (-2 pi)^n times the
    hard-rod coefficient (-1)^(m-1) m^(m-1), with n = m - 1."""
    return (-2.0 * math.pi) ** (m - 1) * pg.hard_rod_coefficient(m)


def chi_braid(m: int) -> int:
    return (-1) ** (m - 1) * math.factorial(m - 1)


def chi_coxeter_b(n: int) -> int:
    return (-1) ** n * math.prod(range(1, 2 * n, 2))


def chi_dowling(n: int, k: int) -> int:
    """dowling(n, k) is the reflection arrangement of G(k, k, n), with
    exponents 1, k + 1, ..., (n - 2) k + 1 and (n - 1)(k - 1)."""
    return ((-1) ** n * math.prod(i * k + 1 for i in range(n - 1))
            * (n - 1) * (k - 1))


_BASE_COUNTS = {}


def base_count(label: str, arr) -> int:
    """Bases counted independently of the exact layer: rank-sized subsets of
    the float (or complex) normals with a determinant away from 0.  Computed
    once per arrangement and kept."""
    if label not in _BASE_COUNTS:
        n = arr.ambient_dim
        _BASE_COUNTS[label] = sum(
            abs(np.linalg.det(arr.coeff[list(rows)])) > 1e-9
            for rows in itertools.combinations(range(arr.size), n))
    return _BASE_COUNTS[label]


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def dr_suite_setup():
    """(label, arrangement, d, samples per side) of each check_dr case."""
    cases = [(f"braid{m}", pg.braid(m), 1, DR_SAMPLES) for m in range(3, 6)]
    cases += [("braid6", pg.braid(6), 1, DR_BRAID6_FACTOR * DR_SAMPLES),
              ("coxeter_b3", pg.coxeter_b(3), 1, DR_SAMPLES),
              ("coxeter_d3", pg.coxeter_d(3), 1, DR_SAMPLES),
              ("dowling2_3", pg.dowling(2, 3), 2, DR_SAMPLES)]
    return cases


def dr_suite_pass(cases, seed: int, workers: int, scale: int = 1,
                  before_call=None):
    calls = []
    for label, arr, d, samples in cases:
        report, seconds = _timed(before_call, pg.check_dr, arr, d,
                                 scale * samples, seed, workers)
        calls.append(Call(label, seconds,
                          [(f"dr/{label}/lhs", report.lhs),
                           (f"dr/{label}/rhs", report.rhs)],
                          dr_case=True))
    return calls


def planar_target(arr, abs_chi: int) -> float:
    """The planar law: (2 pi)^n |chi(0)| for every radii assignment."""
    return (2.0 * math.pi) ** arr.ambient_dim * abs_chi


def planar_radii(size: int):
    """Three radii assignments: all equal, a ramp, and alternating 1/2, 2."""
    return [tuple(1.0 for _ in range(size)),
            tuple(1.0 + 0.5 * e for e in range(size)),
            tuple(2.0 if e % 2 else 0.5 for e in range(size))]


def planar_invariance_setup():
    return [(label, arr, planar_radii(arr.size), abs_chi)
            for label, arr, abs_chi in [("braid4", pg.braid(4), abs(chi_braid(4))),
                                        ("coxeter_b3", pg.coxeter_b(3),
                                         abs(chi_coxeter_b(3)))]]


def planar_invariance_pass(cases, seed: int, workers: int, scale: int = 1,
                           before_call=None):
    calls = []
    for label, arr, radii_list, abs_chi in cases:
        report, seconds = _timed(before_call, pg.planar_invariance_check, arr,
                                 radii_list, scale * PLANAR_SAMPLES, seed,
                                 workers)
        # one key per radii assignment, so each is checked on its own
        calls.append(Call(label, seconds,
                          [(f"planar/{label}/{i}", est)
                           for i, est in enumerate(report.estimates)],
                          exact_ok=math.isclose(report.target,
                                                planar_target(arr, abs_chi),
                                                rel_tol=1e-12)))
    return calls


def warped_projection_setup():
    return {
        "asa_braid3_capped": (pg.braid(3), [pg.capped_cylinder_shape(3, 1.0)] * 3),
        "asa_braid4_cylinder": (pg.braid(4), [pg.cylinder_shape(3, 1.0)] * 6),
        "project_coxeter_b3": pg.coxeter_b(3),
        "order": pg.LinearOrder.default(pg.coxeter_b(3).size),
    }


def warped_projection_pass(setup, seed: int, workers: int, scale: int = 1,
                           before_call=None):
    n = scale * WARP_SAMPLES
    calls = []
    for label in ("asa_braid3_capped", "asa_braid4_cylinder"):
        arr, shapes = setup[label]
        report, seconds = _timed(before_call, pg.check_asa_dr, arr, shapes, 1, n,
                                 seed, workers)
        calls.append(Call(label, seconds, [(f"warp/{label}/lhs", report.lhs),
                                           (f"warp/{label}/rhs", report.rhs)]))
    arr = setup["project_coxeter_b3"]
    report, seconds = _timed(before_call, pg.project_expectation, arr, 1,
                             "norm_sq", n, seed, workers)
    calls.append(Call("project_coxeter_b3", seconds,
                      [("warp/project_coxeter_b3/polymer", report.polymer_side),
                       ("warp/project_coxeter_b3/mmc", report.mmc_side)]))
    est, seconds = _timed(before_call, pg.safe_projection_expectation, arr, 1,
                          "norm_sq", setup["order"], n, seed, workers)
    calls.append(Call("safe_project_coxeter_b3", seconds,
                      [("warp/project_coxeter_b3/safe", est)]))
    return calls


EXACT_ORDERS = 5    # shuffled orders besides the default one


def exact_chi_setup():
    return [("braid6", pg.braid(6), chi_braid(6)),
            ("coxeter_b4", pg.coxeter_b(4), chi_coxeter_b(4)),
            ("dowling3_3", pg.dowling(3, 3), chi_dowling(3, 3))]


def exact_chi_pass(cases, seed: int, workers: int, scale: int = 1,
                   before_call=None):
    """The CLI chi query (chi(0), then the safe-base count under the default
    order and EXACT_ORDERS shuffled ones), the bases and the bounding box,
    on a fresh MatroidView each pass so every cache starts cold."""
    calls = []
    for label, arr, chi in cases:
        if before_call is not None:
            before_call()
        start = time.perf_counter()
        view = pg.MatroidView(arr)
        got_chi = view.chi_at_zero()
        rng = random.Random(seed)
        orders = [pg.LinearOrder.default(arr.size)]
        orders += [pg.LinearOrder.shuffled(arr.size, rng)
                   for _ in range(EXACT_ORDERS)]
        safe = [view.safe_base_count(order=order) for order in orders]
        bases = sum(1 for _ in view.bases())
        box = pg.bounding_halfwidth(arr)
        seconds = time.perf_counter() - start
        sign = (-1) ** arr.ambient_dim
        calls.append(Call(label, seconds, exact_ok=(
            got_chi == chi and all(c == sign * chi for c in safe)
            and bases == base_count(label, arr)
            and math.isfinite(box.halfwidth) and box.halfwidth > 0)))
    return calls


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    threaded: bool     # runs with workers = min(2, cpu count) instead of 1


# why each workload is in the benchmark: see BENCHMARK.json
WORKLOADS = {
    "dr_suite": Workload(dr_suite_setup, dr_suite_pass, True),
    "planar_invariance": Workload(planar_invariance_setup, planar_invariance_pass,
                                  False),
    "warped_projection": Workload(warped_projection_setup, warped_projection_pass,
                                  False),
    "exact_chi": Workload(exact_chi_setup, exact_chi_pass, False),
}


# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["references"]


def closed_form(key: str) -> pg.MCEstimate | None:
    """The closed-form value (zero standard error) an estimate with this key
    must agree with, or None when it has none."""
    parts = key.split("/")
    if parts[0] == "dr" and parts[1].startswith("braid"):
        return pg.MCEstimate(hard_rod_sides(int(parts[1][5:])), 0.0, 0, 0, 1)
    if parts[0] == "planar":
        for label, arr, _, abs_chi in planar_invariance_setup():
            if label == parts[1]:
                return pg.MCEstimate(planar_target(arr, abs_chi), 0.0, 0, 0, 1)
    return None


def reference(key: str, stored: dict) -> pg.MCEstimate:
    """The value an estimate with this key must agree with: a closed form
    or a stored long-run estimate."""
    exact = closed_form(key)
    if exact is not None:
        return exact
    entry = stored[key]
    return pg.MCEstimate(entry["mean"], entry["stderr"], entry["n_samples"],
                         entry["seed"], 1)
