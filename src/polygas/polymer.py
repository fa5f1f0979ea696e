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
`_polymer_estimate`, which differs between them only in how the base
values are drawn, how a non-base value is tested, and the base weight.
The kernel splits the budget evenly across the bases and runs all bases'
rows as one list: one random stream per CHUNK rows, the chunks on the
worker pool, and BLOCK rows at a time drawn, mapped to the non-base values
by each base's float map S_B = C_out(B) B^-1 (a row of the view's base
table), and tested.  Per-base (n, mean, m2) are merged in chunk order, so
results are bit-identical for any worker count.  `sample_for_base` and
`dump_samples_csv` use the same block function on one base.  The region
sides of the projection laws are calls of the mayer tube kernel.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, _checked_radii, _norms_sq
from .geometry import (RNGStream, sample_unit_sphere, sphere_area,
                       surface_measure_total)
from .matroid import BaseTable, LinearOrder, MatroidView, view_of
from .mayer import (BLOCK, MCEstimate, _check_shapes, _chi_weight,
                    _merge_stats, _region_estimate, _shape_draw, map_chunks,
                    z_score)


@dataclass(frozen=True)
class PolymerSample:
    """One draw for a base: directions per base hyperplane, the solved
    configuration, and whether all non-base constraints hold strictly."""

    base_mask: int
    directions: np.ndarray    # (n, dim) unit vectors (complex rows if needed)
    x: np.ndarray             # (n, dim) configuration
    accepted: bool


def _accept_block(table: BaseTable, b: np.ndarray, rng, draw, outside,
                  need_x: bool):
    """One block of polymer draws, row r for the base in table row b[r]:
    base values from draw(rng, elems), accepted where outside(values,
    out_elems) holds for every non-base hyperplane.  Returns (accepted, x),
    x the solved configurations when need_x, else None."""
    h = draw(rng, table.elems[b])
    accepted = outside(table.to_out[b] @ h, table.out[b])
    return accepted, (table.inv[b] @ h if need_x else None)


def _ball_sides(arr: Arrangement, dim: int, radii):
    """(draw, outside) of `_accept_block` for balls of the given radii: base
    value R_e * u_e per element e, u_e a uniform direction in R^dim
    (cyclotomic arrangements need an even dim and pair it into complex
    coordinates), and a non-base value outside when its norm exceeds R_e."""
    if dim < 2:
        raise ValueError("polymer dimension must be >= 2")
    if not arr.complexified and dim % 2:
        raise ValueError("cyclotomic arrangements need an even polymer dimension")
    radii = np.asarray(radii, dtype=float)
    radii_sq = radii ** 2

    def draw(rng, elems):
        u = sample_unit_sphere(dim, rng, elems.size).reshape(elems.shape + (dim,))
        if not arr.complexified:
            u = u[..., 0::2] + 1j * u[..., 1::2]
        u *= radii[elems][..., None]
        return u

    def outside(vals, out):
        return np.all(_norms_sq(vals) > radii_sq[out], axis=1)

    return draw, outside


def _stratum_stats(values: np.ndarray, b: np.ndarray):
    """(first base, n, mean, m2) per base of a contiguous run of rows, b
    the rows' nondecreasing base indices: every base from b[0] to b[-1]
    has rows, so n > 0 throughout."""
    first = int(b[0])
    local = b - first
    n = np.bincount(local)
    mean = np.bincount(local, values) / n
    m2 = np.bincount(local, (values - mean[local]) ** 2)
    return first, n, mean, m2


def _polymer_estimate(view: MatroidView, n_samples: int, seed: int,
                      workers: int, draw, outside, weights,
                      g=None) -> MCEstimate:
    """Sum over bases of the base's weight times the mean over that base's
    draws of accepted (times g(x)): the stratified estimator with the
    budget split evenly across bases.  `weights` holds one weight per row
    of the view's base table, or one for all bases.

    The per_base * |bases| rows are one stratified list, row r drawn for
    base r // per_base, cut into CHUNK-row chunks with one random stream
    each and run on the worker pool.  Per-base (n, mean, m2) come from
    bincounts over each chunk and are merged per base in chunk order, so the
    estimate is bit-identical for any worker count.
    """
    table = view.base_table
    count = table.masks.size
    if n_samples < count:
        raise ValueError(f"n_samples = {n_samples} is smaller than the "
                         f"{count} bases it is split across")
    per_base = n_samples // count
    weights = np.full(count, weights, dtype=float)

    def chunk_stats(rng, start, count):
        rows = np.arange(start, start + count)
        b = rows // per_base
        values = np.empty(count)
        for lo in range(0, count, BLOCK):
            block = slice(lo, lo + BLOCK)
            accepted, x = _accept_block(table, b[block], rng, draw, outside,
                                        g is not None)
            values[block] = accepted if g is None else accepted * g(x)
        return _stratum_stats(values, b)

    n = np.zeros(count, dtype=np.int64)
    mean = np.zeros(count)
    m2 = np.zeros(count)
    for first, cn, cmean, cm2 in map_chunks(per_base * count, seed,
                                            workers, chunk_stats):
        part = slice(first, first + cn.size)
        n[part], mean[part], m2[part] = _merge_stats(
            (n[part], mean[part], m2[part]), (cn, cmean, cm2))
    # the variance of each stratum's mean, 0 for a single row as in run_chunked
    var = m2 / np.maximum(n - 1, 1) / n * (n > 1)
    return MCEstimate(float(weights @ mean), math.sqrt(float(weights ** 2 @ var)),
                      int(n.sum()), seed, workers)


def sample_for_base(arr, base_mask: int, dim: int,
                    rng: np.random.Generator, radii=None) -> PolymerSample:
    """One polymer draw for a base: the configuration solving
    h_e(x) = R_e * u_e for e in the base, accepted iff every other
    hyperplane's value strictly exceeds its radius.  `arr` is an
    Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    radii = arr.radii if radii is None else _checked_radii(radii, arr.size)
    row = view._base_row(base_mask)
    table = view.base_table
    draw, outside = _ball_sides(arr, dim, radii)
    accepted, x = _accept_block(table, np.full(1, row), rng, draw, outside,
                                True)
    base_idx = table.elems[row]
    u = (arr.coeff[base_idx] @ x[0]) / np.asarray(radii)[base_idx][:, None]
    return PolymerSample(base_mask, u, x[0], bool(accepted[0]))


def volume_mc(arr, dim: int, n_samples: int, seed: int,
              workers: int = 1, radii=None) -> MCEstimate:
    """Total polymer volume at the given ambient dimension: sum over bases of
    (sphere area)^n times that base's acceptance rate, the sample budget
    split evenly across bases (n_samples must be at least the base count).
    `arr` is an Arrangement, or a MatroidView of one whose base table is
    then reused."""
    view = view_of(arr)
    arr = view.arrangement
    radii = arr.radii if radii is None else _checked_radii(radii, arr.size)
    weight = sphere_area(dim) ** arr.ambient_dim
    draw, outside = _ball_sides(arr, dim, radii)
    return _polymer_estimate(view, n_samples, seed, workers, draw, outside,
                             weight)


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


def planar_invariance_check(arr: Arrangement, radii_list, n_samples: int,
                            seed: int, workers: int = 1) -> InvarianceReport:
    """Planar polymer volume for several radii assignments; each must agree
    with (2 pi)^n |chi(0)| and with the others within 4 sigma."""
    start = time.perf_counter()
    radii_list = [_checked_radii(radii, arr.size) for radii in radii_list]
    view = MatroidView(arr)
    n = arr.ambient_dim
    target = (2.0 * math.pi) ** n * abs(view.chi_at_zero())
    target_est = MCEstimate(target, 0.0, 0, seed, workers)
    estimates = []
    for i, radii in enumerate(radii_list):
        est = volume_mc(view, 2, n_samples, seed + i, workers, radii=radii)
        estimates.append(est)
    z_target = tuple(z_score(e, target_est) for e in estimates)
    pair = 0.0
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            pair = max(pair, abs(z_score(estimates[i], estimates[j])))
    passed = all(abs(z) < 4.0 for z in z_target) and pair < 4.0
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


def _checked(g):
    def wrapped(y):
        values = np.asarray(g(y), dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("g produced non-finite values on samples")
        return values
    return wrapped


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
    g * chi_G(0).  `arr` is an Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    if not arr.complexified:
        raise ValueError("projection laws are stated for real arrangements")
    if d < 1:
        raise ValueError("d must be >= 1")
    if isinstance(g, str):
        g = G_FUNCTIONS[g]
    g = _checked(g)
    dim = d + 2
    chi_weight = _chi_weight(view)
    n = arr.ambient_dim
    weight = sphere_area(dim) ** n
    draw, outside = _ball_sides(arr, dim, arr.radii)
    polymer_side = _polymer_estimate(view, n_samples, seed, workers, draw,
                                     outside, weight,
                                     g=lambda x: g(x[:, :, 2:]))
    # separate seed so the two sides are statistically independent
    mmc_side = _region_estimate(view, d, chi_weight, n_samples, seed + 1,
                                workers, g=g).scaled((-2.0 * math.pi) ** n)
    z = z_score(polymer_side, mmc_side)
    return ProjectionReport(polymer_side, mmc_side, z, abs(z) < 4.0)


def safe_projection_expectation(arr, d: int, g, order: LinearOrder,
                                n_samples: int, seed: int,
                                workers: int = 1) -> MCEstimate:
    """Positive-weight form of the projection integral: count order-safe
    bases of the within-radius subset instead of adding its chi(0), and scale
    by (2 pi)^n.  Agrees with the chi path for every fixed order.  `arr` is
    an Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    if not arr.complexified:
        raise ValueError("projection laws are stated for real arrangements")
    if isinstance(g, str):
        g = G_FUNCTIONS[g]
    g = _checked(g)

    est = _region_estimate(view, d,
                           lambda masks: view.safe_base_counts(masks, order),
                           n_samples, seed, workers, g=g)
    return est.scaled((2.0 * math.pi) ** arr.ambient_dim)


# --------------------------------------------------------------------------
# warped-surface polymers
# --------------------------------------------------------------------------

def asa_volume_mc(arr, shapes, n_samples: int, seed: int,
                  workers: int = 1) -> MCEstimate:
    """Polymer volume with per-hyperplane surfaces: base functional values
    are drawn uniformly from each surface (bottom point + circle angle), the
    configuration solved, and a sample is accepted when every non-base value
    lies outside that hyperplane's closed solid body (bottom membership and
    circle part within the warp radius never both hold).  `arr` is an
    Arrangement or a MatroidView of one; n_samples must be at least the
    base count."""
    view = view_of(arr)
    arr = view.arrangement
    if not arr.complexified:
        raise ValueError("warped-surface polymers need a real arrangement")
    dims = {s.dim for s in shapes}
    if len(dims) != 1:
        raise ValueError("all shapes must share one ambient dimension")
    dim = dims.pop()
    d = dim - 2
    shapes = _check_shapes(arr, shapes, d)

    draw = _shape_draw(shapes, dim,
                       lambda s, rng, count: s.sample_surface(rng, count))
    distinct = list(dict.fromkeys(shapes))
    shape_of = np.array([distinct.index(s) for s in shapes])

    def outside(vals, out):
        # every distinct shape's solid test on all flattened values, then
        # each value's own shape picked by index, with no per-shape boolean
        # gather and scatter
        flat = vals.reshape(-1, dim)
        w_sq = _norms_sq(flat[:, :2])
        y = flat[:, 2:]
        inside = np.stack([s.bottom_contains(y) & (w_sq <= s.warp(y) ** 2)
                           for s in distinct])
        inside = np.take_along_axis(inside, shape_of[out].reshape(1, -1), 0)[0]
        return ~np.any(inside.reshape(out.shape), axis=1)

    totals = np.array([surface_measure_total(s) for s in shapes])
    return _polymer_estimate(view, n_samples, seed, workers, draw, outside,
                             np.prod(totals[view.base_table.elems], axis=1))


# --------------------------------------------------------------------------
# diagnostics output
# --------------------------------------------------------------------------

def dump_samples_csv(path, arr, dim: int, n_samples: int, seed: int,
                     radii=None):
    """Write (base mask, accepted, flattened coordinates) rows for a small
    number of draws from every base.  `arr` is an Arrangement or a
    MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    table = view.base_table
    radii = arr.radii if radii is None else _checked_radii(radii, arr.size)
    draw, outside = _ball_sides(arr, dim, radii)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["base_mask", "accepted"]
                        + [f"x{i}_{j}" for i in range(arr.ambient_dim)
                           for j in range(dim)])
        for b_index, base_mask in enumerate(table.masks.tolist()):
            rng = RNGStream(seed, b_index).generator()
            accepted, x = _accept_block(table, np.full(n_samples, b_index),
                                        rng, draw, outside, True)
            coords = x.reshape(n_samples, -1)
            if np.iscomplexobj(coords):
                coords = np.concatenate([coords.real, coords.imag], axis=1)
            for row in range(n_samples):
                writer.writerow([base_mask, int(accepted[row])]
                                + [f"{v:.9g}" for v in coords[row]])


def polymer_svg(path, arr, seed: int = 0, tries: int = 1000):
    """Draw one accepted planar sample as an SVG of disks (documentation aid;
    meaningful for difference-functional arrangements).  `arr` is an
    Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    bases = list(view.bases())
    rng = RNGStream(seed, 0).generator()
    sample = None
    for _ in range(tries):
        base_mask = bases[int(rng.integers(len(bases)))]
        cand = sample_for_base(view, base_mask, 2, rng)
        if cand.accepted:
            sample = cand
            break
    if sample is None:
        raise RuntimeError("no accepted sample found")
    pts = sample.x.real if np.iscomplexobj(sample.x) else sample.x
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
