"""Polymer sampling and volume estimation for an arrangement: per base,
draw one surface point per base hyperplane, solve the linear system that
pins the configuration, and accept when every non-base functional lies
outside its hyperplane's body.  Also: the planar radius-invariance check,
the projection laws onto the last d coordinates, and the warped-surface
variant.

The volume of a base's stratum is measured on direction space (the product
of surface measures), so each base contributes
(product of total surface measures) * acceptance probability.

Every polymer volume (`volume_mc`, `asa_volume_mc`, the polymer side of
`project_expectation`) is one call of the stratified kernel
`mayer._polymer_estimate`, the kernel every region estimator runs too.
They differ only in their sides (`_Sides`): which bases are sampled, how
the base values are drawn (sphere points times the radii, or surface
points, written straight into the block's (element, run, row) layout),
how a non-base value is tested, and the base weights; a polymer row's
value is its acceptance flag.  The budget is split evenly across the sampled bases, and a row's
non-base values come from its base's float map S_B = C_out(B) B^-1 (a row
of the view's base table), as one stacked matrix product per block of
whole runs (see the mayer module docstring).  `sample_for_base` and
`dump_samples_csv` use the same block function on a block of one run.
The region sides of the projection laws are tube-kernel calls
(`mayer._region_estimate`).

The ball volumes sample only the bases whose strata can accept at the
call's radii (`live_base_table`): base B's stratum is empty when some
non-base f has sum_{e in B} |S_B[f, e]| R_e <= R_f, by the triangle
inequality, so its acceptance is exactly 0 and its share of the budget
goes to the other bases.

`volume_mc` (and so `check_dr`, `planar_invariance_check` and the CLI)
draws its rows in a fixed rotation frame (`mayer._ball_draw`): the first
direction of every row is e_0 = (1, 0, ...), complex (1, 0, ...) for
cyclotomic arrangements, and at dim 3 the second is (t, sqrt(1 - t^2), 0)
with t uniform on [-1, 1]; only the other directions are sphere points.
This is exact because a row is valued by its acceptance alone, a function
of the norms |S_B h|_f: one rotation Q of every direction (Q in O(dim),
or in U(dim / 2) for cyclotomic arrangements, which commutes with the
complex entries of S_B) leaves every norm as it is.  Given u_1, the Q
taking u_1 to e_0 sends the other directions to independent uniform ones;
at dim 3, the rotation about e_0 taking u_2 into the (e_0, e_1) half-plane
does the same, and u_2's e_0 coordinate is uniform on [-1, 1] by
Archimedes' theorem.  So every base's acceptance has the law it has under
the full draw, for one or two sphere points fewer per row.  Values that
are not rotation invariant keep the full draw: the polymer side of
`project_expectation` (its g reads coordinates of x), `sample_for_base`,
`dump_samples_csv` and `polymer_svg` (they return directions and
configurations), and the tube and warped sides.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arrangement import Arrangement, _checked_radii, _norms_sq
from .geometry import (RNGStream, _Work, sample_unit_sphere, sphere_area,
                       surface_measure_total)
from .matroid import (BaseTable, LinearOrder, MatroidError, MatroidView,
                      view_of)
from .mayer import (Z_LIMIT, MCEstimate, _accept_block, _beyond_radii,
                    _ball_draw, _check_shapes, _chi_weight,
                    _polymer_estimate, _region_estimate, _shape_draw,
                    _shape_test, _Sides, z_score)


@dataclass(frozen=True)
class PolymerSample:
    """One draw for a base: directions per base hyperplane, the solved
    configuration, and whether all non-base constraints hold strictly."""

    base_mask: int
    directions: np.ndarray    # (n, dim) unit vectors (complex rows if needed)
    x: np.ndarray             # (n, dim) configuration
    accepted: bool


def _accepted(outside):
    """value(block, work, vals) of the polymer sides: accepted where
    outside(block, work, vals) flags every non-base value."""
    def value(block, work, vals):
        flags = outside(block, work, vals)
        return np.logical_and.reduce(
            flags, axis=0, out=work.buffer("accepted", flags.shape[1:], bool))
    return value


def _ball_sides(view: MatroidView, dim: int, radii, live: bool = True,
                frame: bool = False) -> _Sides:
    """Sides for balls of the given radii on the rows of the view's base
    table whose strata can accept (`live_base_table`), or on every row when
    not `live`: base value R_e * u_e per element e, u_e a uniform direction
    in R^dim (cyclotomic arrangements need an even dim and pair it into
    complex coordinates), a non-base value outside when its norm exceeds
    R_e, and base weight sphere_area(dim)^n.  With `frame`, the directions
    are drawn in the fixed rotation frame of `mayer._ball_draw`, for
    callers that read the acceptance flags only.  The dimension is refused
    before any base table is read."""
    arr = view.arrangement
    if dim < 2:
        raise ValueError("polymer dimension must be >= 2")
    if not arr.complexified and dim % 2:
        raise ValueError("cyclotomic arrangements need an even polymer dimension")
    table = live_base_table(view, radii) if live else view.base_table
    radii = np.asarray(radii, dtype=float)
    return _Sides(table, _ball_draw(table, radii, dim, sample_unit_sphere,
                                    frame),
                  _accepted(_beyond_radii(table, radii)),
                  np.full(table.masks.size, sphere_area(dim) ** arr.ambient_dim))


# float bounds within this relative distance of R_f are settled exactly
_TIE_BAND = 1e-12


def live_base_table(view: MatroidView, radii) -> BaseTable:
    """The rows of the view's base table whose ball strata can accept at
    the given radii, in order: the table itself when every one can.

    Every draw for base B has |h_e| = R_e on B, so a non-base value
    h_f = sum_e S_B[f, e] h_e has |h_f| <= sum_e |S_B[f, e]| R_e by the
    triangle inequality, in any dimension, real or complex.  When that
    bound is at most R_f, no draw has |h_f| > R_f and B's stratum accepts
    nothing.  The bound is decided in floats outside a band of 1e-12
    relative to R_f plus a bound on the terms |C_f| |B^-1| R_B that S_B was
    rounded from, |C_f|_1 max_k |B^-1 row k|_1 max_e R_e.  Inside the band,
    rational arrangements settle it with the exact S_B, and cyclotomic ones
    keep the stratum."""
    table = view.base_table
    radii = np.asarray(radii, dtype=float)
    base_radii = radii[table.elems]
    out_radii = radii[table.out]
    bound = (np.abs(table.to_out) @ base_radii[..., None])[..., 0]
    reach = np.abs(view.arrangement.coeff).sum(axis=1)[table.out]
    terms = reach * (table.row_abs_sums.max(axis=1)
                     * base_radii.max(axis=1))[:, None]
    band = _TIE_BAND * (out_radii + terms)
    empty = bound < out_radii - band
    ties = (np.abs(bound - out_radii) <= band) & ~empty.any(axis=1)[:, None]
    if ties.any() and view.arrangement.field_kind == "rational":
        empty |= _exact_empty(view, radii, ties)
    live = ~empty.any(axis=1)
    return table if live.all() else table.take(live)


def _exact_empty(view: MatroidView, radii: np.ndarray,
                 ties: np.ndarray) -> np.ndarray:
    """Where `ties` holds, whether sum_e |S_B[f, e]| R_e <= R_f exactly,
    the radii taken as the dyadic rationals the floats are (integers over
    one power of two); False elsewhere."""
    table = view.base_table
    rows = np.flatnonzero(ties.any(axis=1))
    num, den = view.exact_to_out(rows)
    ratios = [r.as_integer_ratio() for r in radii.tolist()]
    scale = max(q for _, q in ratios)
    whole = np.array([p * (scale // q) for p, q in ratios], dtype=object)
    bound = (np.abs(num) * whole[table.elems[rows]][:, None, :]).sum(axis=2)
    empty = np.zeros_like(ties)
    empty[rows] = ties[rows] & (bound <= whole[table.out[rows]] * den).astype(bool)
    return empty


def _one_base_block(row: int, rows: int, rng, sides: _Sides):
    """(accepted, x) of `rows` draws for the base in row `row` of
    sides.table, as the one block (row, 1, rows)."""
    accepted, x = _accept_block((row, 1, rows), rng, sides, _Work(),
                                need_x=True)
    return accepted[0], x


def sample_for_base(arr, base_mask: int, dim: int,
                    rng: np.random.Generator) -> PolymerSample:
    """One polymer draw for a base: the configuration solving
    h_e(x) = R_e * u_e for e in the base, accepted iff every other
    hyperplane's value strictly exceeds its radius.  `arr` is an
    Arrangement or a MatroidView of one; other radii are
    `arr.with_radii(radii)`."""
    view = view_of(arr)
    arr = view.arrangement
    if not view.is_base(base_mask):         # a rank call, no compile
        raise MatroidError(f"mask {base_mask!r} is not a base")
    sides = _ball_sides(view, dim, arr.radii, live=False)
    row = view._base_row(base_mask)
    accepted, x = _one_base_block(row, 1, rng, sides)
    base_idx = sides.table.elems[row]
    u = (arr.coeff[base_idx] @ x[0]) / np.asarray(arr.radii)[base_idx][:, None]
    return PolymerSample(base_mask, u, x[0], bool(accepted[0]))


def volume_mc(arr, dim: int, n_samples: int, seed: int,
              workers: int = 1, radii=None) -> MCEstimate:
    """Total polymer volume at the given ambient dimension: sum over bases of
    (sphere area)^n times that base's acceptance rate, the sample budget
    split evenly across the bases whose strata can accept at these radii
    (`live_base_table`; n_samples must be at least the base count, and the
    estimate's n_samples is per_base times the live bases).  `arr` is an
    Arrangement, or a MatroidView of one whose base table is then
    reused."""
    view = view_of(arr)
    arr = view.arrangement
    radii = arr.radii if radii is None else _checked_radii(radii, arr.size)
    return _polymer_estimate(view, n_samples, seed, workers,
                             _ball_sides(view, dim, radii, frame=True))


# --------------------------------------------------------------------------
# planar radius invariance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    radii_list: tuple
    estimates: tuple          # MCEstimate per radii assignment
    target: float             # (2 pi)^n |chi(0)|
    z_to_target: tuple
    max_pairwise_z: float
    passed: bool
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "radii_list": [list(r) for r in self.radii_list],
            "estimates": [e.to_json_dict() for e in self.estimates],
            "target": self.target,
            "z_to_target": list(self.z_to_target),
            "max_pairwise_z": self.max_pairwise_z,
            "pass": self.passed,
            "wall_time": self.wall_time,
        }


def planar_invariance_check(arr, radii_list, n_samples: int,
                            seed: int, workers: int = 1) -> InvarianceReport:
    """Planar polymer volume for several radii assignments; each must agree
    with (2 pi)^n |chi(0)| and with the others within 4 sigma.  `arr` is an
    Arrangement or a MatroidView of one."""
    start = time.perf_counter()
    view = view_of(arr)
    arr = view.arrangement
    radii_list = [_checked_radii(radii, arr.size) for radii in radii_list]
    if not radii_list:
        raise ValueError("need at least one radii assignment")
    n = arr.ambient_dim
    target = (2.0 * math.pi) ** n * abs(view.chi_at_zero())
    target_est = MCEstimate(target, 0.0, 0, seed, workers)
    estimates = [volume_mc(view, 2, n_samples, seed + i, workers, radii=radii)
                 for i, radii in enumerate(radii_list)]
    z_target = tuple(z_score(e, target_est) for e in estimates)
    pair = max((abs(z_score(a, b)) for a, b in combinations(estimates, 2)),
               default=0.0)
    passed = all(abs(z) < Z_LIMIT for z in z_target) and pair < Z_LIMIT
    return InvarianceReport(tuple(radii_list), tuple(estimates), target,
                            z_target, pair, passed,
                            time.perf_counter() - start)


# --------------------------------------------------------------------------
# projection laws
# --------------------------------------------------------------------------

G_FUNCTIONS = {
    "const1": lambda y: np.ones(y.shape[0]),
    "norm_sq": lambda y: np.sum(y * y, axis=(1, 2)),
    "indicator_halfspace": lambda y: (y[:, 0, 0] > 0).astype(float),
}


def _projection_g(arr: Arrangement, g):
    """g, or the G_FUNCTIONS entry it names, wrapped to refuse non-finite
    values; an unknown name, then a cyclotomic arrangement, is refused."""
    if isinstance(g, str):
        if g not in G_FUNCTIONS:
            raise ValueError(
                f"unknown g {g!r}; choose from {sorted(G_FUNCTIONS)}")
        g = G_FUNCTIONS[g]
    if not arr.complexified:
        raise ValueError("projection laws are stated for real arrangements")

    def checked(y):
        values = np.asarray(g(y), dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("g produced non-finite values on samples")
        return values
    return checked


@dataclass(frozen=True)
class ProjectionReport:
    polymer_side: MCEstimate
    mmc_side: MCEstimate
    z: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"polymer_side": self.polymer_side.to_json_dict(),
                "mmc_side": self.mmc_side.to_json_dict(),
                "z_score": self.z, "pass": self.passed}


def project_expectation(arr, d: int, g, n_samples: int, seed: int,
                        workers: int = 1) -> ProjectionReport:
    """Expectation of a function of the last d coordinates, two ways: over
    accepted polymer samples at dimension d + 2 (weighted by surface totals),
    and as (-2 pi)^n times the region-decomposition integral of
    g * chi_G(0).  `arr` is an Arrangement or a MatroidView of one.  The
    region side runs first, so its checks of d and of the subset tables
    come before any polymer draw."""
    view = view_of(arr)
    arr = view.arrangement
    g = _projection_g(arr, g)
    n = arr.ambient_dim
    # separate seed so the two sides are statistically independent
    mmc_side = _region_estimate(view, d, _chi_weight, n_samples, seed + 1,
                                workers, g=g).scaled((-2.0 * math.pi) ** n)
    polymer_side = _polymer_estimate(view, n_samples, seed, workers,
                                     _ball_sides(view, d + 2, arr.radii),
                                     g=lambda x: g(x[:, :, 2:]))
    z = z_score(polymer_side, mmc_side)
    return ProjectionReport(polymer_side, mmc_side, z, abs(z) < Z_LIMIT)


def safe_projection_expectation(arr, d: int, g, order: LinearOrder,
                                n_samples: int, seed: int,
                                workers: int = 1) -> MCEstimate:
    """Positive-weight form of the projection integral: count order-safe
    bases of the within-radius subset instead of adding its chi(0), and scale
    by (2 pi)^n.  Agrees with the chi path for every fixed order.  `arr` is
    an Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    g = _projection_g(arr, g)

    def safe_count(view):
        view._minimal_externals_of(order)   # a bad order compiles nothing
        return lambda masks: np.divide(*view.safe_base_counts(masks, order))

    est = _region_estimate(view, d, safe_count, n_samples, seed, workers, g=g)
    return est.scaled((2.0 * math.pi) ** arr.ambient_dim)


# --------------------------------------------------------------------------
# warped-surface polymers
# --------------------------------------------------------------------------

def asa_volume_mc(arr, shapes, n_samples: int, seed: int,
                  workers: int = 1) -> MCEstimate:
    """Polymer volume with per-hyperplane surfaces: base functional values
    are drawn uniformly from each surface (bottom point + circle point), the
    configuration solved, and a sample is accepted when every non-base value
    lies outside that hyperplane's closed solid body (bottom membership and
    circle part within the warp radius never both hold).  `arr` is an
    Arrangement or a MatroidView of one; n_samples must be at least the
    base count."""
    view = view_of(arr)
    arr = view.arrangement
    shapes = _check_shapes(arr, shapes)
    dim = shapes[0].dim
    table = view.base_table

    def outside_solid(s, v):
        # outside the closed solid body: not both in the bottom and within
        # the warp radius
        w, y = v[:, :2], v[:, 2:]
        return ~(s.bottom_contains(y) & (_norms_sq(w) <= s.warp(y) ** 2))

    draw = _shape_draw(table, shapes, dim,
                       lambda s, rng, count: s.sample_surface(rng, count))
    totals = np.array([surface_measure_total(s) for s in shapes])
    sides = _Sides(table, draw,
                   _accepted(_shape_test(table, shapes, outside_solid)),
                   np.prod(totals[table.elems], axis=1))
    return _polymer_estimate(view, n_samples, seed, workers, sides)


# --------------------------------------------------------------------------
# diagnostics output
# --------------------------------------------------------------------------

def _real_coordinates(x: np.ndarray) -> np.ndarray:
    """x over its last axis as real coordinates: complex entry j holds the
    coordinates (2j, 2j + 1)."""
    return np.ascontiguousarray(x).view(float) if np.iscomplexobj(x) else x


def dump_samples_csv(path, arr, dim: int, n_samples: int, seed: int):
    """Write (base mask, accepted, flattened coordinates) rows for a small
    number of draws from every base.  `arr` is an Arrangement or a
    MatroidView of one."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    view = view_of(arr)
    arr = view.arrangement
    sides = _ball_sides(view, dim, arr.radii, live=False)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["base_mask", "accepted"]
                        + [f"x{i}_{j}" for i in range(arr.ambient_dim)
                           for j in range(dim)])
        for b_index, base_mask in enumerate(sides.table.masks.tolist()):
            rng = RNGStream(seed, b_index).generator()
            accepted, x = _one_base_block(b_index, n_samples, rng, sides)
            coords = _real_coordinates(x.reshape(n_samples, -1))
            for row in range(n_samples):
                writer.writerow([base_mask, int(accepted[row])]
                                + [f"{v:.9g}" for v in coords[row]])


def polymer_svg(path, arr, seed: int = 0):
    """Draw one accepted planar sample as an SVG of disks (documentation aid;
    meaningful for difference-functional arrangements).  `arr` is an
    Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    sides = _ball_sides(view, 2, arr.radii, live=False)
    rng = RNGStream(seed, 0).generator()
    for _ in range(1000):       # draws before giving up
        # a uniform base, then one row for it, as sample_for_base draws it
        row = int(rng.integers(sides.table.masks.size))
        accepted, x = _one_base_block(row, 1, rng, sides)
        if accepted[0]:
            break
    else:
        raise RuntimeError("no accepted sample found")
    pts = _real_coordinates(x[0])
    rmin = min(arr.radii)
    lo = pts.min() - rmin
    hi = pts.max() + rmin
    span = max(hi - lo, 1e-9)
    scale = 400.0 / span

    def sx(v):
        return 20 + (v - lo) * scale

    disks = "\n".join(
        f'  <circle cx="{sx(p[0]):.2f}" cy="{sx(p[1]):.2f}" '
        f'r="{rmin / 2 * scale:.2f}" fill="#8aa" stroke="#345"/>'
        for p in pts)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="440" height="440">\n'
           f"{disks}\n</svg>\n")
    with open(path, "w") as fh:
        fh.write(svg)
    return path
