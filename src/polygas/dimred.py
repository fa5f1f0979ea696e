"""Orchestrated verifications: the reduction identity per arrangement, the
hard-rod series cross-check, the pair-functional (type D) factorization
checks, and the warped-surface variant.

The identity is checked in the arranged form

    vol(polymers at d + 2) = (-2 pi)^n * (pressure coefficient at d),

whose n = 1 case pins the scalar placement: a single hyperplane gives
coefficient -2 at d = 1 and sphere volume 4 pi at d + 2 = 3.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, product

from .arrangement import braid, coxeter_d
from .matroid import MatroidView, view_of
from .mayer import (Z_LIMIT, MCEstimate, asa_pressure_coefficient,
                    pressure_coefficient, z_score)
from .polymer import asa_volume_mc, volume_mc
from .signed_graphs import (SignedGraph, _Components, dn_mask_to_graph,
                            spans_with_unbalanced_components, is_balanced)


@dataclass(frozen=True)
class DRReport:
    descriptor: dict
    d: int
    lhs: MCEstimate          # (-2 pi)^n * pressure coefficient at d
    rhs: MCEstimate          # polymer volume at d + 2
    z: float
    passed: bool
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "arrangement": self.descriptor,
            "d": self.d,
            "lhs": self.lhs.to_json_dict("(-2pi)^n * pressure coefficient"),
            "rhs": self.rhs.to_json_dict("polymer volume at d+2"),
            "z_score": self.z,
            "pass": self.passed,
            "wall_time": self.wall_time,
        }


def _dr_report(arr, d: int, pressure, volume) -> DRReport:
    """The reduction identity on one view of arr, an Arrangement or a
    MatroidView of one: lhs = (-2 pi)^n * pressure(view), then rhs =
    volume(view), and their z score."""
    start = time.perf_counter()
    view = view_of(arr)
    arr = view.arrangement
    lhs = pressure(view).scaled((-2.0 * math.pi) ** arr.ambient_dim)
    rhs = volume(view)
    z = z_score(lhs, rhs)
    return DRReport(arr.to_descriptor(), d, lhs, rhs, z, abs(z) < Z_LIMIT,
                    time.perf_counter() - start)


def check_dr(arr, d: int, n_samples: int, seed: int,
             workers: int = 1) -> DRReport:
    """Estimate both sides of the reduction identity with n_samples each and
    report the z score.  d = 0 makes the left side exact.  `arr` is an
    Arrangement or a MatroidView of one."""
    return _dr_report(
        arr, d,
        lambda view: pressure_coefficient(view, d, n_samples, seed, workers),
        lambda view: volume_mc(view, d + 2, n_samples, seed + 1, workers))


# --------------------------------------------------------------------------
# hard-rod (1-D gas) series
# --------------------------------------------------------------------------

def hard_rod_coefficient(m: int) -> int:
    """Order-m pressure coefficient of the 1-D unit-length hard-rod gas:
    (-1)^(m-1) * m^(m-1).  The tests re-derive 2 and 3 independently by
    exact piecewise integration over connected graphs."""
    return (-1) ** (m - 1) * m ** (m - 1)


@dataclass(frozen=True)
class TonksRow:
    m: int
    estimate: MCEstimate
    expected: int
    z: float
    passed: bool


@dataclass(frozen=True)
class TonksReport:
    rows: tuple
    passed: bool
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"m": r.m, "estimate": r.estimate.to_json_dict(),
                      "expected": r.expected, "z_score": r.z, "pass": r.passed}
                     for r in self.rows],
            "pass": self.passed,
            "wall_time": self.wall_time,
        }


def tonks_series_check(m_max: int, n_samples: int = 100_000, seed: int = 0,
                       workers: int = 1) -> TonksReport:
    """Pressure coefficients of the gauge-fixed pair-difference arrangements
    at d = 1 against the known hard-rod values, for m = 2..m_max."""
    if not 2 <= m_max <= 4:
        raise ValueError("m_max must be between 2 and 4 (cost guard)")
    start = time.perf_counter()
    rows = []
    for m in range(2, m_max + 1):
        view = MatroidView(braid(m))
        est = pressure_coefficient(view, 1, n_samples, seed + m, workers)
        expected = hard_rod_coefficient(m)
        z = z_score(est, MCEstimate(float(expected), 0.0, 0, seed, workers))
        rows.append(TonksRow(m, est, expected, z, abs(z) < Z_LIMIT))
    return TonksReport(tuple(rows), all(r.passed for r in rows),
                       time.perf_counter() - start)


# --------------------------------------------------------------------------
# pair-functional (type D) checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeDReport:
    n: int
    combinatorial_ok: bool   # spanning subsets == unbalanced-component graphs
    dr: DRReport

    def to_json_dict(self) -> dict:
        d = self.dr.to_json_dict()
        d["combinatorial_ok"] = self.combinatorial_ok
        d["n"] = self.n
        return d


def typed_spanning_cross_check(n: int) -> bool:
    """Spanning subsets of the pair-functional arrangement computed by exact
    rank coincide with the signed graphs whose components all carry an
    unbalanced cycle."""
    arr = coxeter_d(n)
    view = MatroidView(arr)
    for mask in range(1 << arr.size):
        graph = dn_mask_to_graph(n, mask)
        if view.is_spanning(mask) != spans_with_unbalanced_components(graph):
            return False
    return True


def typeD_unbalanced_check(n: int, d: int, n_samples: int, seed: int,
                           workers: int = 1) -> TypeDReport:
    """Coefficient-level check for the symmetric-gas correction series: the
    sum of the arrangement's coefficients against the polymer volume, plus
    the combinatorial identification of its spanning subsets."""
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    combinatorial_ok = typed_spanning_cross_check(n)
    dr = check_dr(coxeter_d(n), d, n_samples, seed, workers)
    return TypeDReport(n, combinatorial_ok, dr)


def balanced_weight_check(n: int) -> bool:
    """Counting identity behind the balanced-sector generating function:

        sum over balanced signed graphs of t^|E|
          == sum over plain graphs of 2^(n - #components) * t^|E|.

    Exhaustive over all signed graphs on n vertices (n <= 5); the analytic
    statement follows because re-signing vertices leaves the integrand's
    measure invariant."""
    if n > 5:
        raise ValueError("n must be <= 5 (exhaustive enumeration)")
    pairs = list(combinations(range(n), 2))
    lhs = Counter()
    for signs in product((0, 1, -1), repeat=len(pairs)):
        edges = tuple((i, j, s) for (i, j), s in zip(pairs, signs) if s)
        if is_balanced(SignedGraph(n, edges)):
            lhs[len(edges)] += 1
    rhs = Counter()
    for chosen in product((False, True), repeat=len(pairs)):
        edges = list(compress(pairs, chosen))
        comps = len(_Components(n, edges).counts())
        rhs[len(edges)] += 2 ** (n - comps)
    return lhs == rhs


# --------------------------------------------------------------------------
# warped-surface reduction
# --------------------------------------------------------------------------

def check_asa_dr(arr, shapes, d: int, n_samples: int, seed: int,
                 workers: int = 1) -> DRReport:
    """Reduction identity with per-hyperplane surfaces: bottom-membership
    pressure coefficient against the surface-sampled polymer volume.  `arr`
    is an Arrangement or a MatroidView of one."""
    return _dr_report(
        arr, d,
        lambda view: asa_pressure_coefficient(view, shapes, d, n_samples, seed,
                                              workers),
        lambda view: asa_volume_mc(view, shapes, n_samples, seed + 1, workers))
