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
The kernel splits the budget evenly across the bases its sides sample and
runs all their rows as one list: one random stream per CHUNK rows, the
chunks on the worker pool, and BLOCK rows at a time drawn, mapped to the
non-base values by each base's float map S_B = C_out(B) B^-1 (a row of the
view's base table), and tested.  A block's values are shaped (element, row,
value coordinate), its squared norms and comparisons (element, row), in
buffers allocated once per chunk.  The rows are sorted by base, so a block
is at most three parts, each k runs of one base's rows (`_Runs`): a part of
a block array is an (element, k, run rows, ...) view, S_B and B^-1 reach it
as one stacked matrix product over k consecutive rows of the base table,
whose columns are a run's (row, value coordinate) pairs, and per-base radii
as an (element, k, 1) slice of a transposed per-base table.  Per-base
(n, mean, m2) are merged in chunk order, so results are bit-identical for
any worker count.
`sample_for_base` and `dump_samples_csv` use the same block function on one
base.  The region sides of the projection laws are calls of the mayer tube
kernel.

The ball volumes sample only the bases whose strata can accept at the
call's radii (`live_base_table`): base B's stratum is empty when some
non-base f has sum_{e in B} |S_B[f, e]| R_e <= R_f, by the triangle
inequality, so its acceptance is exactly 0 and its share of the budget
goes to the other bases.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arrangement import Arrangement, _checked_radii, _norms_sq
from .geometry import (RNGStream, sample_unit_sphere, sphere_area,
                       surface_measure_total)
from .matroid import (BaseTable, LinearOrder, MatroidError, MatroidView,
                      view_of)
from .mayer import (BLOCK, Z_LIMIT, MCEstimate, _check_shapes, _chi_weight,
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


class _Runs:
    """Rows [row0, row0 + rows) of a stratified list whose row r is drawn
    for base r // per_base, as parts that each hold whole or partial runs
    of one base's rows: a partial head run, the whole runs, a partial tail
    run, empty parts left out.  Part (lo, hi, base, k) is block rows
    [lo, hi): k runs of (hi - lo) // k rows, for bases base .. base + k - 1.

    A block array with its rows on axis 1 splits into one view per part
    (`split`), so per-base data reach each part as one slice
    [base:base + k] of a per-base table, never as per-row gathers, and a
    block makes the same numpy calls whatever per_base is."""

    def __init__(self, row0: int, rows: int, per_base: int):
        end = row0 + rows
        whole_lo = -(-row0 // per_base)     # first run starting in the block
        whole_hi = end // per_base          # first run ending past the block
        if whole_lo > whole_hi:             # inside one run
            parts = [(0, rows, row0 // per_base, 1)]
        else:
            lo, hi = whole_lo * per_base - row0, whole_hi * per_base - row0
            parts = [(0, lo, whole_lo - 1, 1),
                     (lo, hi, whole_lo, whole_hi - whole_lo),
                     (hi, rows, whole_hi, 1)]
        self.parts = [part for part in parts if part[1] > part[0]]
        self.size = rows

    def split(self, *arrays):
        """Per part, (base, k) and each array's view of the part's rows, for
        arrays with the block's rows on axis 1: that axis cut into
        (k, run rows)."""
        for lo, hi, base, k in self.parts:
            yield (base, k) + tuple(
                a[:, lo:hi].reshape((a.shape[0], k, (hi - lo) // k) + a.shape[2:])
                for a in arrays)


@dataclass(frozen=True)
class _Sides:
    """Which bases are sampled, how their base values are drawn and how
    non-base values are tested: `table` holds the sampled rows of the
    view's base table, and each value has `width` entries of `dtype`.
    draw(rng, runs, work) returns the rows' base values, shaped
    (n, runs.size, width), in a buffer of work; outside(runs, work, vals)
    returns the rows' acceptance flags given their non-base values vals,
    shaped (m, runs.size, width)."""

    table: BaseTable
    width: int
    dtype: type
    draw: object
    outside: object


class _Work:
    """Buffers for the blocks of one chunk: one flat array per name, made
    at the name's first request, which comes from the chunk's first and
    largest block, and viewed by each block as a C-contiguous array of the
    shape it asks for."""

    def __init__(self):
        self._flat = {}

    def buffer(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None:
            flat = self._flat[name] = np.empty(size, dtype)
        assert flat.dtype == dtype and flat.size >= size, (name, shape, dtype)
        return flat[:size].reshape(shape)


def _matmul_runs(runs: _Runs, maps: np.ndarray, h: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """out[:, i] = maps[b] @ h[:, i] for each row i of the block (axis 1 of
    h, shaped (n, rows, width), and of out), b its base: one stacked matrix
    product per part of `runs`, over k rows of maps, each run's (row, value
    coordinate) pairs as the columns.  A one-row run's product is the
    per-row product maps[b] @ h[:, i] itself; a longer run's gives its bits
    for real maps and may differ in the last bits for complex ones
    (test_run_views_equal_gathered_products)."""
    def columns(part):      # (elements, k, L, width) -> (k, elements, L * width)
        return part.reshape(part.shape[:2] + (math.prod(part.shape[2:]),)
                            ).swapaxes(0, 1)

    for b, k, part_h, part_out in runs.split(h, out):
        np.matmul(maps[b:b + k], columns(part_h), out=columns(part_out))
    return out


def _accept_block(runs: _Runs, rng, sides: _Sides, work: _Work,
                  need_x: bool):
    """One block of polymer draws, the rows of `runs` (rows of sides.table):
    base values h from sides.draw, mapped to the non-base values by each
    row's S_B and tested by sides.outside.  Returns (accepted, x), x the
    configurations B^-1 h row by row, (rows, n, width), when need_x, else
    None."""
    table = sides.table
    shape = (table.out.shape[1], runs.size, sides.width)
    h = sides.draw(rng, runs, work)
    vals = _matmul_runs(runs, table.to_out, h,
                        work.buffer("vals", shape, sides.dtype))
    accepted = sides.outside(runs, work, vals)
    if not need_x:
        return accepted, None
    x = _matmul_runs(runs, table.inv, h,
                     work.buffer("x", h.shape, sides.dtype))
    x_rows = work.buffer("x_rows", (runs.size,) + h.shape[::2], sides.dtype)
    np.copyto(x_rows, x.swapaxes(0, 1))
    return accepted, x_rows


def _ball_sides(view: MatroidView, dim: int, radii,
                live: bool = True) -> _Sides:
    """Sides for balls of the given radii on the rows of the view's base
    table whose strata can accept (`live_base_table`), or on every row when
    not `live`: base value R_e * u_e per element e, u_e a uniform direction
    in R^dim (cyclotomic arrangements need an even dim and pair it into
    complex coordinates), and a non-base value outside when its norm
    exceeds R_e.  The dimension is refused before any base table is read."""
    arr = view.arrangement
    if dim < 2:
        raise ValueError("polymer dimension must be >= 2")
    if not arr.complexified and dim % 2:
        raise ValueError("cyclotomic arrangements need an even polymer dimension")
    table = live_base_table(view, radii) if live else view.base_table
    radii = np.asarray(radii, dtype=float)
    # per-base radii with the bases on axis 1: (n, bases) and (m, bases)
    base_radii = radii[table.elems].T
    out_radii_sq = (radii ** 2)[table.out].T
    n, m = base_radii.shape[0], out_radii_sq.shape[0]
    width, dtype = (dim, float) if arr.complexified else (dim // 2, complex)

    def draw(rng, runs, work):
        # the directions in the sphere draw's order, (rows, n, dim), drawn
        # into the block's non-base value buffer (free until the S_B
        # product) and written times R_e into h, (n, rows, dim) as floats;
        # a complex h holds coordinates (2i, 2i + 1) as the real and
        # imaginary part of entry i, as u[..., 0::2] + 1j * u[..., 1::2] does
        rows = runs.size
        free = work.buffer("vals", (max(n, m) * rows * width,), dtype)
        u = free.view(float)[:rows * n * dim].reshape(rows * n, dim)
        sample_unit_sphere(dim, rng, rows * n, out=u)
        h = work.buffer("h", (n, rows, width), dtype)
        u_rows = u.reshape(rows, n, dim).swapaxes(0, 1)
        for b, k, part_u, part_h in runs.split(u_rows, h.view(float)):
            np.multiply(part_u, base_radii[:, b:b + k, None, None], out=part_h)
        return h

    def outside(runs, work, vals):
        norms_sq = _norms_sq(vals)
        compared = work.buffer("compared", norms_sq.shape, bool)
        for b, k, part, cmp in runs.split(norms_sq, compared):
            np.greater(part, out_radii_sq[:, b:b + k, None], out=cmp)
        accepted = work.buffer("accepted", (runs.size,), bool)
        return np.logical_and.reduce(compared, axis=0, out=accepted)

    return _Sides(table, width, dtype, draw, outside)


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


def _stratum_stats(values: np.ndarray, start: int, per_base: int):
    """(first base, n, mean, m2) per base of the rows [start, start +
    values.size) of the stratified list, row r drawn for base
    r // per_base: every base from the first to the last has rows, so
    n > 0 throughout.  The sums run over each base's rows in order."""
    first = start // per_base
    edges = np.arange(first, (start + values.size - 1) // per_base + 2) * per_base
    n = np.diff(np.clip(edges, start, start + values.size))
    local = np.repeat(np.arange(n.size), n)
    mean = np.bincount(local, values) / n
    m2 = np.bincount(local, (values - np.repeat(mean, n)) ** 2)
    return first, n, mean, m2


def _polymer_estimate(view: MatroidView, n_samples: int, seed: int,
                      workers: int, sides: _Sides, weights,
                      g=None) -> MCEstimate:
    """Sum over the bases of sides.table of the base's weight times the mean
    over that base's draws of accepted (times g(x)): the stratified
    estimator with the budget split evenly across those bases.  The other
    bases of the view must accept nothing; n_samples must still be at least
    the view's base count.  `weights` holds one weight per row of
    sides.table, or one for all bases.

    The per_base * |bases| rows are one stratified list, row r drawn for
    base r // per_base, cut into CHUNK-row chunks with one random stream
    each and run on the worker pool, BLOCK rows at a time, in buffers
    allocated once per chunk; g, when given, takes the block's
    configurations row by row, (rows, n, width).  Per-base (n, mean, m2)
    come from bincounts over each chunk and are merged per base in chunk
    order, so the estimate is bit-identical for any worker count.
    """
    total = view.base_table.masks.size
    if n_samples < total:
        raise ValueError(f"n_samples = {n_samples} is smaller than the "
                         f"{total} bases it is split across")
    count = sides.table.masks.size
    if count == 0:      # every stratum is empty: the volume is exactly 0
        return MCEstimate(0.0, 0.0, 0, seed, workers)
    per_base = n_samples // count
    weights = np.full(count, weights, dtype=float)

    def chunk_stats(rng, start, count):
        work = _Work()
        values = np.empty(count)
        for lo in range(0, count, BLOCK):
            runs = _Runs(start + lo, min(BLOCK, count - lo), per_base)
            accepted, x = _accept_block(runs, rng, sides, work, g is not None)
            block = values[lo:lo + runs.size]
            if g is None:
                block[:] = accepted
            else:
                np.multiply(accepted, g(x), out=block)
        return _stratum_stats(values, start, per_base)

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


def _one_base_block(row: int, rows: int, rng, sides: _Sides):
    """(accepted, x) of `rows` draws for the base in row `row` of
    sides.table, as one block."""
    return _accept_block(_Runs(row * rows, rows, rows), rng, sides, _Work(),
                         need_x=True)


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
                             _ball_sides(view, dim, radii),
                             sphere_area(dim) ** arr.ambient_dim)


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
                                     sphere_area(d + 2) ** n,
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
        return lambda masks: view.safe_base_counts(masks, order)

    est = _region_estimate(view, d, safe_count, n_samples, seed, workers, g=g)
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
    dims = {s.dim for s in shapes}
    if len(dims) != 1:
        raise ValueError("all shapes must share one ambient dimension")
    dim = dims.pop()
    d = dim - 2
    shapes = _check_shapes(arr, shapes, d)

    table = view.base_table
    n, m = table.elems.shape[1], table.out.shape[1]
    draw_shapes = _shape_draw(shapes, dim,
                              lambda s, rng, count: s.sample_surface(rng, count))
    distinct = list(dict.fromkeys(shapes))
    # the smallest integer type, so that the stable sort of a part's
    # shape indices is a radix sort
    shape_of = np.array([distinct.index(s) for s in shapes],
                        dtype=np.min_scalar_type(len(distinct) - 1))
    # per-base tables with the bases on axis 1: elements (n, bases) and the
    # shapes of the non-base values (m, bases)
    base_elems = table.elems.T
    out_shapes = shape_of[table.out].T

    def draw(rng, runs, work):
        # the surface draws in row order, (rows, n, dim), written to h as
        # (n, rows, dim)
        rows = runs.size
        elems = work.buffer("elems", (n, rows), np.intp)
        for b, k, part in runs.split(elems):
            part[...] = base_elems[:, b:b + k, None]
        h = work.buffer("h", (n, rows, dim))
        np.copyto(h, draw_shapes(rng, elems.T).swapaxes(0, 1))
        return h

    def outside(runs, work, vals):
        # per part, each distinct shape's solid test on the runs of the
        # values that have it only: the part's (non-base element, run)
        # pairs grouped by a stable sort of their shape indices, their runs
        # of values gathered, tested and scattered back
        rows = runs.size
        inside = work.buffer("inside", (m, rows), bool)
        for b, k, part_vals, part_inside in runs.split(vals, inside):
            which = out_shapes[:, b:b + k].reshape(-1)
            order = np.argsort(which, kind="stable")
            counts = np.bincount(which, minlength=len(distinct))
            for s, own in zip(distinct, np.split(order, np.cumsum(counts)[:-1])):
                own = np.divmod(own, k)
                v = part_vals[own]          # (pairs, run rows, dim)
                y = v[..., 2:].reshape(-1, d)
                w_sq = _norms_sq(v[..., :2]).reshape(-1)
                inside_s = s.bottom_contains(y) & (w_sq <= s.warp(y) ** 2)
                part_inside[own] = inside_s.reshape(v.shape[:2])
        accepted = work.buffer("accepted", (rows,), bool)
        np.logical_or.reduce(inside, axis=0, out=accepted)
        return np.logical_not(accepted, out=accepted)

    totals = np.array([surface_measure_total(s) for s in shapes])
    return _polymer_estimate(view, n_samples, seed, workers,
                             _Sides(table, dim, float, draw, outside),
                             np.prod(totals[table.elems], axis=1))


# --------------------------------------------------------------------------
# diagnostics output
# --------------------------------------------------------------------------

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
            coords = x.reshape(n_samples, -1)
            if np.iscomplexobj(coords):
                # complex entry k holds the real coordinates (2k, 2k + 1)
                coords = coords.view(float)
            for row in range(n_samples):
                writer.writerow([base_mask, int(accepted[row])]
                                + [f"{v:.9g}" for v in coords[row]])


def polymer_svg(path, arr, seed: int = 0):
    """Draw one accepted planar sample as an SVG of disks (documentation aid;
    meaningful for difference-functional arrangements).  `arr` is an
    Arrangement or a MatroidView of one."""
    view = view_of(arr)
    arr = view.arrangement
    bases = list(view.bases())
    rng = RNGStream(seed, 0).generator()
    for _ in range(1000):       # draws before giving up
        base_mask = bases[int(rng.integers(len(bases)))]
        sample = sample_for_base(view, base_mask, 2, rng)
        if sample.accepted:
            break
    else:
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
