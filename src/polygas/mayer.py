"""Matroidal Mayer coefficients: exact at d = 0, Monte Carlo for d >= 1,
plus the region-decomposition estimator for the pressure-series
coefficient and the warped-surface (bottom membership) variants; and the
estimation machinery every Monte Carlo estimate runs on, the chunk
scheduler and the stratified kernel `_polymer_estimate`.

Estimation contract: the scheduler `map_chunks` cuts work into fixed-size
chunks, one deterministic random stream per chunk, and returns the chunks'
results in chunk order.  `run_chunked` merges them into one (n, mean, m2);
the stratified kernel merges them per base.  Worker count only decides
which thread runs which chunk, so results are bit-identical across worker
counts for a fixed (seed, n_samples).

The stratified kernel estimates a sum over bases of a base weight times
the mean of a per-row value over that base's draws.  It splits the budget
evenly across the bases its sides sample (`_Sides`: `volume_mc` and the
region estimators refuse n_samples below the view's base count and report
per_base times the sampled bases as their n_samples) and runs all their
rows as one list: one random stream per CHUNK rows, the chunks on the
worker pool, and BLOCK rows at a time drawn, mapped to the non-base values
by each base's float map S_B = C_out(B) B^-1 (a row of the view's base
table), and valued.  A block's values are shaped (element, row, value
coordinate), its squared norms and comparisons (element, row), in buffers
allocated once per chunk.  The rows are sorted by base, so a block is at
most three parts, each k runs of one base's rows (`_Runs`): a part of a
block array is an (element, k, run rows, ...) view, S_B and B^-1 reach it
as one stacked matrix product over k consecutive rows of the base table,
whose columns are a run's (row, value coordinate) pairs, and per-base
radii as an (element, k, 1) slice of a transposed per-base table.  The
polymer volumes (polymer.py) value a row by its acceptance, the region
estimators here by a weight of its within-radius mask.

Every region estimator is one call of `_region_estimate`, the kernel run
on the tubes of the bases.  For a base B inside `within` (the ground set by
default), tube_B = {x : h_e(x) in body_e for e in B}, body_e a ball or a
shape's bottom, has volume vol_B = |det B|^-d * prod_{e in B} vol(body_e)
(|det_C B| for cyclotomic arrangements).  A row drawn for B has each base
value h_e uniform in body_e, its non-base values S_B h, and the
configuration x = B^-1 h only when g needs it; its mask G is B's own bits
and the non-base elements whose value lies in its body, and its value is
w(G) (times g(x)) / nb(G), nb(G) the number of bases inside G (and
`within`).  The base weights are the vol_B.  x lies in tube_B exactly
when B is inside G(x), so sum_B vol_B E_B[w / nb] = the integral of w:
the multiple-importance weight 1/nb of the balance heuristic (Veach and
Guibas, SIGGRAPH 1995) with each base's share of the budget fixed instead
of drawn.  No sample lands where the weight is 0 for want of a base, and
an arrangement with a single base gets an exact (zero-variance) answer.
The even split is kept on purpose: rows in proportion to vol_B would
lower the variance where the vol_B differ (1.4-1.5x at unequal radii on
braid(4) and coxeter_b(3)), at the cost of per-base run lengths.  The
weights are the chi table (pressure coefficients), a subset indicator
scaled by (-1)^|H| (single coefficients, sampled from the tubes of the
bases inside H), and the order-safe base count (the safe projection law
in polymer.py).  Each weight brings its own nb: the nb table next to the
chi table, the constant base count of H for the indicator (nonzero only
where G contains H), and a count per distinct mask for the safe count; so
only the chi weights need the tables over all 2^|E| subsets.  The tests
check every estimator against an independent slow path, a uniform
bounding-box sampler (tests/oracles.py).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .arrangement import Arrangement, _mask_bits, _norms_sq
from .geometry import ASAShape, RNGStream, ball_volume, uniform_ball
from .matroid import BaseTable, MatroidView, popcount

CHUNK = 1 << 16


class SpanningError(ValueError):
    """The subset does not span: the Mayer integral diverges."""


# --------------------------------------------------------------------------
# estimates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate: mean, standard error of the mean, sample count,
    and the (seed, workers) provenance.  Mergeable and scalable."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    workers: int

    def merge(self, other: "MCEstimate") -> "MCEstimate":
        """Pool with another estimate over disjoint samples (parallel-variance
        combination; associative up to float rounding)."""
        na, nb = self.n_samples, other.n_samples
        if na == 0:
            return replace(other, seed=self.seed, workers=self.workers)
        if nb == 0:
            return self
        return _estimate(_merge_stats((na, self.mean, self._m2()),
                                      (nb, other.mean, other._m2())),
                         self.seed, self.workers)

    def _m2(self) -> float:
        n = self.n_samples
        return self.stderr ** 2 * n * (n - 1) if n > 1 else 0.0

    def scaled(self, factor: float) -> "MCEstimate":
        return replace(self, mean=self.mean * factor,
                       stderr=self.stderr * abs(factor))

    def to_json_dict(self, quantity: str | None = None) -> dict:
        d = {"mean": self.mean, "stderr": self.stderr,
             "n_samples": self.n_samples, "seed": self.seed,
             "workers": self.workers}
        if quantity is not None:
            d["quantity"] = quantity
        return d


# a check passes while |z| < Z_LIMIT
Z_LIMIT = 4.0


def z_score(a: MCEstimate, b: MCEstimate) -> float:
    """(a - b) / combined stderr, with the spread floored at 1e-12 relative
    so that two exact (zero-variance) sides differing only by float rounding
    compare as equal instead of blowing up."""
    diff = a.mean - b.mean
    floor = 1e-12 * max(abs(a.mean), abs(b.mean), 1.0)
    spread = max(math.hypot(a.stderr, b.stderr), floor)
    return diff / spread


# --------------------------------------------------------------------------
# chunked runner
# --------------------------------------------------------------------------

def _chunk_specs(n_rows: int, stream_base: int):
    """(stream, start, count) of each CHUNK-row chunk of n_rows rows."""
    return [(stream_base + index, start, min(CHUNK, n_rows - start))
            for index, start in enumerate(range(0, n_rows, CHUNK))]


def map_chunks(n_rows: int, seed: int, workers: int, chunk_fn,
               stream_base: int = 0) -> list:
    """chunk_fn(rng, start, count) for each CHUNK-row chunk of rows
    [0, n_rows), with one deterministic random stream per chunk, run on a
    pool of `workers` threads; the results come back in chunk order.

    Chunk boundaries and streams depend only on n_rows and stream_base,
    never on workers, so anything reduced from the results in that order is
    bit-identical for any worker count.
    """
    if n_rows < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    specs = _chunk_specs(n_rows, stream_base)

    def work(spec):
        stream, start, count = spec
        return chunk_fn(RNGStream(seed, stream).generator(), start, count)

    if workers == 1 or len(specs) == 1:
        return [work(s) for s in specs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, specs))


def _stats_of(values: np.ndarray):
    n = values.size
    mean = float(values.mean())
    m2 = float(np.sum((values - mean) ** 2))
    return (n, mean, m2)


def _merge_stats(a, b):
    """Pool (n, mean, m2) triples; elementwise when they hold arrays."""
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return (n, mean, m2)


def _estimate(stats, seed: int, workers: int) -> MCEstimate:
    """The MCEstimate of pooled (n, mean, m2) stats."""
    n, mean, m2 = stats
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return MCEstimate(mean, stderr, n, seed, workers)


def run_chunked(n_samples: int, seed: int, workers: int, values_fn,
                stream_base: int = 0) -> MCEstimate:
    """Estimate the mean of values_fn(rng, count) samples.

    values_fn must return a float array of the requested length and draw all
    randomness from the generator it is handed.  Chunk boundaries depend only
    on n_samples, never on workers.
    """
    results = map_chunks(
        n_samples, seed, workers,
        lambda rng, start, count: _stats_of(
            np.asarray(values_fn(rng, count), dtype=float)),
        stream_base=stream_base)
    return _estimate(reduce(_merge_stats, results), seed, workers)


# --------------------------------------------------------------------------
# the stratified kernel
# --------------------------------------------------------------------------

# rows per block: bounds the memory of the kernel's block buffers and of
# the non-base values
BLOCK = 8192


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
    """Which bases are sampled, how their base values are drawn and how a
    row is valued: `table` holds the sampled rows of the view's base table,
    and each value has `width` entries of `dtype`.  draw(rng, runs, work)
    returns the rows' base values, shaped (n, runs.size, width), in a
    buffer of work; value(runs, work, vals) returns the rows' values (a
    polymer's acceptance flags, a tube's mask weight) given their non-base
    values vals, shaped (m, runs.size, width)."""

    table: BaseTable
    width: int
    dtype: type
    draw: object
    value: object


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
    """One block of draws, the rows of `runs` (rows of sides.table): base
    values h from sides.draw, mapped to the non-base values by each row's
    S_B and valued by sides.value.  Returns (values, x), x the
    configurations B^-1 h row by row, (rows, n, width), when need_x, else
    None."""
    table = sides.table
    shape = (table.out.shape[1], runs.size, sides.width)
    h = sides.draw(rng, runs, work)
    vals = _matmul_runs(runs, table.to_out, h,
                        work.buffer("vals", shape, sides.dtype))
    values = sides.value(runs, work, vals)
    if not need_x:
        return values, None
    x = _matmul_runs(runs, table.inv, h,
                     work.buffer("x", h.shape, sides.dtype))
    x_rows = work.buffer("x_rows", (runs.size,) + h.shape[::2], sides.dtype)
    np.copyto(x_rows, x.swapaxes(0, 1))
    return values, x_rows


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
                      workers: int, sides: _Sides, weights, g=None,
                      stream_base: int = 0) -> MCEstimate:
    """Sum over the bases of sides.table of the base's weight times the mean
    over that base's draws of sides.value (times g(x)): the stratified
    estimator with the budget split evenly across those bases, which every
    polymer volume and every region estimator runs.  The other bases of
    the view must contribute nothing; n_samples must still be at least the
    view's base count.  `weights` holds one weight per row of sides.table,
    or one for all bases.

    The per_base * |bases| rows are one stratified list, row r drawn for
    base r // per_base, cut into CHUNK-row chunks with one random stream
    each (from stream_base on) and run on the worker pool, BLOCK rows at a
    time, in buffers allocated once per chunk; g, when given, takes the
    block's configurations row by row, (rows, n, width).  Per-base
    (n, mean, m2) come from bincounts over each chunk and are merged per
    base in chunk order, so the estimate is bit-identical for any worker
    count.
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
            row_values, x = _accept_block(runs, rng, sides, work,
                                          g is not None)
            block = values[lo:lo + runs.size]
            if g is None:
                block[:] = row_values
            else:
                np.multiply(row_values, g(x), out=block)
        return _stratum_stats(values, start, per_base)

    n = np.zeros(count, dtype=np.int64)
    mean = np.zeros(count)
    m2 = np.zeros(count)
    for first, cn, cmean, cm2 in map_chunks(per_base * count, seed, workers,
                                            chunk_stats, stream_base):
        part = slice(first, first + cn.size)
        n[part], mean[part], m2[part] = _merge_stats(
            (n[part], mean[part], m2[part]), (cn, cmean, cm2))
    # the variance of each stratum's mean, 0 for a single row as in run_chunked
    var = m2 / np.maximum(n - 1, 1) / n * (n > 1)
    return MCEstimate(float(weights @ mean), math.sqrt(float(weights ** 2 @ var)),
                      int(n.sum()), seed, workers)


# --------------------------------------------------------------------------
# sides shared by the polymer and tube estimators
# --------------------------------------------------------------------------

def _scale_rows(runs: _Runs, u: np.ndarray, base_radii: np.ndarray,
                h: np.ndarray) -> np.ndarray:
    """h[e, i] = R_e * u[i, e] for each row i of the block and each element
    e of its base, written into h and returned: u shaped (rows, n, real
    coordinates), h (n, rows, width), base_radii (n, bases).  A complex h
    holds coordinates (2j, 2j + 1) as the real and imaginary part of entry
    j, as u[..., 0::2] + 1j * u[..., 1::2] does."""
    u_rows = u.reshape(runs.size, h.shape[0], -1).swapaxes(0, 1)
    for b, k, part_u, part_h in runs.split(u_rows, h.view(float)):
        np.multiply(part_u, base_radii[:, b:b + k, None, None], out=part_h)
    return h


def _beyond_radii(table: BaseTable, radii: np.ndarray):
    """outside(runs, work, vals) for balls: whether each non-base value's
    norm exceeds its hyperplane's radius, (m, rows) bool."""
    # per-base squared radii with the bases on axis 1: (m, bases)
    out_radii_sq = (radii ** 2)[table.out].T

    def outside(runs, work, vals):
        norms_sq = _norms_sq(vals)
        compared = work.buffer("compared", norms_sq.shape, bool)
        for b, k, part, cmp in runs.split(norms_sq, compared):
            np.greater(part, out_radii_sq[:, b:b + k, None], out=cmp)
        return compared

    return outside


def _shape_indices(shapes):
    """The distinct shapes in order of first use, and each hyperplane's
    index among them in the smallest integer type, so that a stable sort
    of shape indices is a radix sort."""
    distinct = list(dict.fromkeys(shapes))
    return distinct, np.array([distinct.index(s) for s in shapes],
                              dtype=np.min_scalar_type(len(distinct) - 1))


def _shape_draw(table: BaseTable, shapes, width: int, sample):
    """draw(rng, runs, work) for warped shapes: each row's base values
    sample(shapes[e], rng, count) with `width` coordinates, (n, rows,
    width), from one sample call per distinct shape over the rows' (row,
    element) pairs in row order."""
    distinct, shape_of = _shape_indices(shapes)
    # the shapes of the base elements with the bases on axis 1: (n, bases)
    base_shapes = shape_of[table.elems].T
    n = base_shapes.shape[0]

    def draw(rng, runs, work):
        rows = runs.size
        h = work.buffer("h", (n, rows, width))
        if len(distinct) == 1:
            # the loop's draws for one shape, without its gather and
            # scatter: perfbench warped_projection wall_s 0.96 -> 0.91 s, 5
            # of 6 pairs (2-vCPU VM)
            points = sample(distinct[0], rng, rows * n)
        else:
            which = work.buffer("which", (n, rows), shape_of.dtype)
            for b, k, part in runs.split(which):
                part[...] = base_shapes[:, b:b + k, None]
            which = which.T.reshape(-1)
            points = np.empty((rows * n, width))
            for i, shape in enumerate(distinct):
                pick = which == i
                points[pick] = sample(shape, rng, int(np.count_nonzero(pick)))
        np.copyto(h, points.reshape(rows, n, width).swapaxes(0, 1))
        return h

    return draw


def _shape_test(table: BaseTable, shapes, test):
    """outside(runs, work, vals) for warped shapes: test(shapes[e], v) of
    each non-base value v, rows of `width` coordinates, as (m, rows) bool.
    Per part, each distinct shape is tested on the runs of the values that
    have it only: the part's (non-base element, run) pairs grouped by a
    stable sort of their shape indices, their runs of values gathered,
    tested and scattered back."""
    distinct, shape_of = _shape_indices(shapes)
    # the shapes of the non-base values with the bases on axis 1: (m, bases)
    out_shapes = shape_of[table.out].T

    def outside(runs, work, vals):
        flags = work.buffer("flags", vals.shape[:2], bool)
        for b, k, part_vals, part_flags in runs.split(vals, flags):
            which = out_shapes[:, b:b + k].reshape(-1)
            order = np.argsort(which, kind="stable")
            counts = np.bincount(which, minlength=len(distinct))
            for s, own in zip(distinct, np.split(order, np.cumsum(counts)[:-1])):
                own = np.divmod(own, k)
                v = part_vals[own]          # (pairs, run rows, width)
                part_flags[own] = test(s, v.reshape(-1, v.shape[-1])
                                       ).reshape(v.shape[:2])
        return flags

    return outside


# --------------------------------------------------------------------------
# the tube estimators
# --------------------------------------------------------------------------

def _unit_ball(d: int, rng, count: int) -> np.ndarray:
    """count points uniform in the unit ball of R^d, (count, d): each tube
    row's ball draws, before they are scaled by the radii."""
    if d == 1:
        return rng.uniform(-1.0, 1.0, (count, 1))
    return uniform_ball(d, rng, count)


def _tube_value(view: MatroidView, table: BaseTable, weight, outside):
    """value(runs, work, vals) of the tube sides: w / nb of each row's
    within-radius mask G, every element but the non-base ones flagged by
    outside(runs, work, vals).  A base's own elements are always in G, so
    float rounding at |h_e| = R_e cannot drop x out of its own tube: nb >= 1
    on every row."""
    # the bits of the non-base elements with the bases on axis 1: (m, bases)
    out_bits = _mask_bits(view.size)[table.out].T
    ground = np.int64(view.ground_mask)

    def value(runs, work, vals):
        flags = outside(runs, work, vals)
        bits = work.buffer("bits", flags.shape, np.int64)
        for b, k, part_flags, part_bits in runs.split(flags, bits):
            np.multiply(part_flags, out_bits[:, b:b + k, None], out=part_bits)
        masks = np.add.reduce(bits, axis=0,
                              out=work.buffer("masks", (runs.size,), np.int64))
        np.bitwise_xor(masks, ground, out=masks)
        w, nb = weight(masks)
        return np.divide(w, nb, out=work.buffer("weights", (runs.size,)))

    return value


def _region_estimate(view: MatroidView, d: int, weight, n_samples: int,
                     seed: int, workers: int, *, within: int | None = None,
                     shapes=None, g=None, stream_base: int = 0) -> MCEstimate:
    """Estimate of the integral over configurations x of
    weight(G(x)) * g(x), G(x) the within-radius mask: ball membership, or
    bottom membership of each hyperplane's shape when shapes are given.

    The stratified kernel runs on the tubes of the bases inside `within`
    (the ground set by default), each of base weight vol_B, each row of
    value w / nb (times g(x)); see the module docstring.  weight(view)
    compiles what the weight reads and returns a function mapping an int64
    mask array to (w, nb): the per-row weights w, which must vanish on
    masks holding no base inside `within`, and nb[G & within], an array, or
    a scalar where it is constant on the support of w (as for `_contains`).
    d and the field are refused before weight(view) compiles anything.
    """
    arr = view.arrangement
    if d < 1:
        raise ValueError("d must be >= 1 for Monte Carlo estimation")
    if not arr.complexified and d % 2:
        raise ValueError("cyclotomic arrangements need even d")
    weight = weight(view)
    table = view.base_table
    if within is not None:
        table = table.inside(within)
    if shapes is None:
        radii = np.asarray(arr.radii, dtype=float)
        # per-base radii with the bases on axis 1: (n, bases)
        base_radii = radii[table.elems].T
        n = base_radii.shape[0]
        width, dtype = (d, float) if arr.complexified else (d // 2, complex)

        def draw(rng, runs, work):
            return _scale_rows(runs, _unit_ball(d, rng, runs.size * n),
                               base_radii,
                               work.buffer("h", (n, runs.size, width), dtype))

        outside = _beyond_radii(table, radii)
        body = ball_volume(d) * radii ** d
    else:
        width, dtype = d, float
        draw = _shape_draw(table, shapes, d,
                           lambda s, rng, count: s.sample_bottom(rng, count))
        outside = _shape_test(table, shapes, lambda s, v: ~s.bottom_contains(v))
        body = np.array([s.bottom_volume for s in shapes])
    vol = table.abs_det ** -d * np.prod(body[table.elems], axis=1)
    sides = _Sides(table, width, dtype, draw,
                   _tube_value(view, table, weight, outside))
    return _polymer_estimate(view, n_samples, seed, workers, sides, vol, g=g,
                             stream_base=stream_base)


def _chi_weight(view: MatroidView):
    """Weight of the pressure estimators: chi_G(0) from the chi table, over
    the nb[G] bases inside G from the nb table."""
    chi, nb = view.chi_table, view.nb_table
    return lambda masks: (chi[masks], nb[masks])


def _contains(subset_mask: int):
    """Weight of a single coefficient, whose x is drawn from the tubes of
    the bases inside the spanning subset_mask: 1 where the mask contains
    subset_mask, else 0.  Wherever it is 1, G & subset_mask is subset_mask,
    so nb is the constant number of bases inside subset_mask, and no table
    is needed.  A subset that does not span is refused by a rank call."""
    def weight(view: MatroidView):
        if not view.is_spanning(subset_mask):
            raise SpanningError("subset does not span")
        nb = len(view.bases_of(subset_mask))
        return lambda masks: ((masks & subset_mask) == subset_mask, nb)
    return weight


def _parity(subset_mask: int) -> float:
    return -1.0 if popcount(subset_mask) & 1 else 1.0


# --------------------------------------------------------------------------
# matroidal Mayer coefficients
# --------------------------------------------------------------------------

def mmc_d0(view: MatroidView, subset_mask: int) -> int:
    """The d = 0 coefficient of a spanning set: (-1)^|H| exactly."""
    if not view.is_spanning(subset_mask):
        raise SpanningError("subset does not span")
    return -1 if popcount(subset_mask) & 1 else 1


def mmc_mc(view: MatroidView, subset_mask: int, d: int, n_samples: int,
           seed: int, workers: int = 1) -> MCEstimate:
    """Unbiased estimate of (-1)^|H| * vol{x : ||h_e(x)|| <= R_e for e in H},
    sampling the tubes of the bases inside H."""
    return _region_estimate(view, d, _contains(subset_mask), n_samples,
                            seed, workers, within=subset_mask
                            ).scaled(_parity(subset_mask))


def pressure_exact_d0(view: MatroidView) -> int:
    """d = 0 collapses the sum over spanning sets to the characteristic
    polynomial at zero."""
    return view.chi_at_zero(view.ground_mask)


def pressure_coefficient(view: MatroidView, d: int, n_samples: int, seed: int,
                         workers: int = 1) -> MCEstimate:
    """Sum over spanning subsets of the d-dimensional coefficients, via the
    one-pass region decomposition: sample x, find its within-radius subset G,
    and add chi_G(0), read from the view's chi table (0 unless G has full
    rank)."""
    if d == 0:
        return MCEstimate(float(pressure_exact_d0(view)), 0.0, 0, seed, workers)
    return _region_estimate(view, d, _chi_weight, n_samples, seed, workers)


# --------------------------------------------------------------------------
# warped-surface variant (per-hyperplane bottoms instead of balls)
# --------------------------------------------------------------------------

def _check_shapes(arr: Arrangement, shapes, d: int | None = None):
    """shapes as a list, refused unless it holds one ASAShape per
    hyperplane, all of bottom dimension d (or, when d is None, all of one
    ambient dimension), on a real arrangement."""
    shapes = list(shapes)
    if len(shapes) != arr.size:
        raise ValueError("need one shape per hyperplane")
    for s in shapes:
        if not isinstance(s, ASAShape):
            raise TypeError("shapes must be ASAShape instances")
    if d is None:
        if len({s.dim for s in shapes}) != 1:
            raise ValueError("all shapes must share one ambient dimension")
        d = shapes[0].bottom_dim
    for s in shapes:
        if s.bottom_dim != d:
            raise ValueError(
                f"shape bottom dimension {s.bottom_dim} does not match d={d}")
    if not arr.complexified:
        raise ValueError("warped-surface coefficients need a real arrangement")
    return shapes


def mmc_asa(view: MatroidView, subset_mask: int, shapes, d: int,
            n_samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """(-1)^|H| * vol{x : h_e(x) in bottom_e for e in H}."""
    shapes = _check_shapes(view.arrangement, shapes, d)
    return _region_estimate(view, d, _contains(subset_mask), n_samples,
                            seed, workers, within=subset_mask, shapes=shapes
                            ).scaled(_parity(subset_mask))


def asa_pressure_coefficient(view: MatroidView, shapes, d: int, n_samples: int,
                             seed: int, workers: int = 1) -> MCEstimate:
    """Region-decomposition estimator with ball membership replaced by bottom
    membership of each hyperplane's shape."""
    shapes = _check_shapes(view.arrangement, shapes, d)
    return _region_estimate(view, d, _chi_weight, n_samples,
                            seed, workers, shapes=shapes)
