"""Matroidal Mayer coefficients: exact at d = 0, Monte Carlo for d >= 1,
plus the region-decomposition estimator for the pressure-series
coefficient and the warped-surface (bottom membership) variants; and the
estimation machinery every Monte Carlo estimate runs on, the chunk
scheduler and the stratified kernel `_polymer_estimate`.  Every public
estimator takes an Arrangement or a MatroidView of one (`view_of`).

Estimation contract: the scheduler `map_chunks` runs a list of chunks,
one deterministic random stream per chunk, and returns the chunks' results
in chunk order; the stratified kernel plans its own chunks and merges
their results per base.  Worker count only decides which thread runs which
chunk, so results are bit-identical across worker counts for a fixed
(seed, n_samples).  No estimator calls `run_chunked`, which cuts its
samples into CHUNK-row chunks and merges their results into one (n, mean,
m2): it is kept only for the tests' oracles and the benchmark's tracer.

The stratified kernel estimates a sum over bases of a base weight times
the mean of a per-row value over that base's draws.  It splits the budget
evenly across the bases its sides sample (`_Sides`: `volume_mc` and the
region estimators refuse n_samples below the view's base count and report
per_base times the sampled bases as their n_samples).  A base's per_base
rows are one run, and the runs are planned into blocks of at most BLOCK
rows (`_blocks`): k whole runs of consecutive bases, or, for a run longer
than BLOCK, one near-equal piece of it.  CHUNK // BLOCK blocks make a
chunk, with one random stream, and the chunks run on the worker pool.  A
block is drawn, mapped to the non-base values by each base's float map
S_B = C_out(B) B^-1 (a row of the view's base table), and valued, in
buffers that live as long as the chunk.  Its arrays are shaped (element,
k, run rows, value coordinate), its squared norms and comparisons
(element, k, run rows): S_B and B^-1 reach it as one stacked matrix
product over k consecutive rows of the base table, whose columns are a
run's (row, value coordinate) pairs, per-base radii as an (element, k, 1)
slice of a transposed per-base table, and its values, shaped (k, run
rows), give each run's (n, mean, m2) directly.  Every draw is written
straight into that layout, in (element, run, row) order: a ball draw
scales its unit points in place by each base's radii (`_ball_draw`), and
a warped draw samples each shape's (element, run) pairs in turn
(`_shape_groups`, the grouping the warped tests use too).  The polymer volumes
(polymer.py) value a row by its acceptance, the region estimators here by
a weight of its within-radius mask.

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
from .geometry import ASAShape, RNGStream, _Work, ball_volume, uniform_ball
from .matroid import BaseTable, MatroidView, popcount, view_of

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

def _chunk_sizes(n_rows: int) -> list:
    """The row counts of the CHUNK-row chunks of n_rows rows."""
    if n_rows < 1:
        raise ValueError("n_samples must be >= 1")
    return [min(CHUNK, n_rows - start) for start in range(0, n_rows, CHUNK)]


def map_chunks(chunks: list, seed: int, workers: int, chunk_fn,
               stream_base: int = 0) -> list:
    """chunk_fn(rng, chunk) for each chunk of `chunks`, chunk i with the
    deterministic random stream stream_base + i, run on a pool of `workers`
    threads; the results come back in chunk order.

    The chunks and their streams never depend on workers, so anything
    reduced from the results in that order is bit-identical for any worker
    count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def work(index):
        rng = RNGStream(seed, stream_base + index).generator()
        return chunk_fn(rng, chunks[index])

    if workers == 1 or len(chunks) == 1:
        return [work(i) for i in range(len(chunks))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, range(len(chunks))))


def _stats_of(values: np.ndarray):
    """(n, mean, m2) over the last axis of values."""
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    m2 = np.sum((values - np.expand_dims(mean, -1)) ** 2, axis=-1)
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
    return MCEstimate(float(mean), stderr, n, seed, workers)


def run_chunked(n_samples: int, seed: int, workers: int, values_fn,
                stream_base: int = 0) -> MCEstimate:
    """Estimate the mean of values_fn(rng, count) samples.

    values_fn must return a float array of the requested length and draw all
    randomness from the generator it is handed.  Chunk boundaries depend only
    on n_samples, never on workers.
    """
    results = map_chunks(
        _chunk_sizes(n_samples), seed, workers,
        lambda rng, count: _stats_of(
            np.asarray(values_fn(rng, count), dtype=float)),
        stream_base=stream_base)
    return _estimate(reduce(_merge_stats, results), seed, workers)


# --------------------------------------------------------------------------
# the stratified kernel
# --------------------------------------------------------------------------

# rows per block: bounds the memory of the kernel's block buffers and of
# the non-base values
BLOCK = 8192


def _blocks(bases: int, per_base: int) -> list:
    """The blocks of a stratified list of per_base rows for each of `bases`
    bases, in row order, as (base, k, rows): k runs of `rows` rows, one for
    each of the bases base .. base + k - 1.  Runs of at most BLOCK rows are
    grouped BLOCK // per_base to a block (the last block may hold fewer);
    a longer run is cut into ceil(per_base / BLOCK) near-equal pieces, one
    block each.  So a block holds at most BLOCK rows, and every block but
    the last of a list of grouped runs holds at least BLOCK / 2."""
    if per_base <= BLOCK:
        k = BLOCK // per_base
        return [(base, min(k, bases - base), per_base)
                for base in range(0, bases, k)]
    pieces = -(-per_base // BLOCK)
    return [(base, 1, (per_base + i) // pieces)
            for base in range(bases) for i in range(pieces)]


@dataclass(frozen=True)
class _Sides:
    """Which bases are sampled, how their base values are drawn, how a row
    is valued and how each base is weighted: `table` holds the sampled rows
    of the view's base table.  For a block (base, k, rows), draw(rng,
    block, work) returns the rows' base values, shaped (n, k, rows, width),
    in a buffer of work, drawn in that (element, run, row) order;
    value(block, work, vals) returns the rows' values (a polymer's
    acceptance flags, a tube's w / nb), shaped (k, rows), given their
    non-base values vals, shaped (m, k, rows, width) and of the base
    values' dtype.  `weights` holds one base weight per row of table."""

    table: BaseTable
    draw: object
    value: object
    weights: np.ndarray


def _matmul_runs(block, maps: np.ndarray, h: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """out[:, j, i] = maps[base + j] @ h[:, j, i] for each row i of each run
    j of the block (base, k, rows), h shaped (n, k, rows, width) and out
    (m, k, rows, width): one stacked matrix product over k rows of maps,
    each run's (row, value coordinate) pairs as the columns.  A one-row run's
    product is the per-row product itself; a longer run's gives its bits for
    real maps and may differ in the last bits for complex ones
    (test_run_views_equal_gathered_products)."""
    def columns(a):     # (elements, k, rows, width) -> (k, elements, rows * width)
        return a.reshape(a.shape[:2] + (math.prod(a.shape[2:]),)
                         ).swapaxes(0, 1)

    base, k, _ = block
    np.matmul(maps[base:base + k], columns(h), out=columns(out))
    return out


def _accept_block(block, rng, sides: _Sides, work: _Work, need_x: bool):
    """One block (base, k, rows) of draws for rows of sides.table: base
    values h from sides.draw, mapped to the non-base values by each run's
    S_B and valued by sides.value.  Returns (values, x): the values shaped
    (k, rows), and x the configurations B^-1 h row by row, (k * rows, n,
    width), a view of the (n, k, rows, width) solve, when need_x, else
    None.  The buffers take their shape and dtype from h."""
    table = sides.table
    h = sides.draw(rng, block, work)
    n, k, rows, width = h.shape
    m = table.out.shape[1]
    vals = _matmul_runs(block, table.to_out, h,
                        work.buffer("vals", (m, k, rows, width), h.dtype))
    values = sides.value(block, work, vals)
    if not need_x:
        return values, None
    x = _matmul_runs(block, table.inv, h, work.buffer("x", h.shape, h.dtype))
    return values, x.transpose(1, 2, 0, 3).reshape(k * rows, n, width)


def _polymer_estimate(view: MatroidView, n_samples: int, seed: int,
                      workers: int, sides: _Sides, g=None) -> MCEstimate:
    """Sum over the bases of sides.table of the base's weight (from
    sides.weights) times the mean over that base's draws of sides.value
    (times g(x)): the stratified estimator with the budget split evenly
    across those bases, which every polymer volume and every region
    estimator runs.  The other bases of the view must contribute nothing;
    n_samples must still be at least the view's base count.

    The per_base rows of each base are one run, and the runs are planned
    into blocks of whole runs or of pieces of one run (`_blocks`), CHUNK //
    BLOCK blocks to a chunk, with one random stream per chunk.  The chunks
    run on the worker pool, a block at a time, in buffers that live as
    long as the chunk; g, when given, takes the block's configurations row
    by row, (k * rows, n, width).  Each block's values, shaped (k, rows), give
    its runs' (n, mean, m2), merged per base in chunk order, so the
    estimate is bit-identical for any worker count.
    """
    total = view.base_table.masks.size
    if n_samples < total:
        raise ValueError(f"n_samples = {n_samples} is smaller than the "
                         f"{total} bases it is split across")
    count = sides.table.masks.size
    if count == 0:      # every stratum is empty: the volume is exactly 0
        return MCEstimate(0.0, 0.0, 0, seed, workers)
    blocks = _blocks(count, n_samples // count)
    step = CHUNK // BLOCK
    chunks = [blocks[i:i + step] for i in range(0, len(blocks), step)]

    def chunk_stats(rng, chunk):
        work = _Work()
        stats = []
        for block in chunk:
            values, x = _accept_block(block, rng, sides, work, g is not None)
            if g is not None:
                values = values * g(x).reshape(values.shape)
            stats.append(_stats_of(values))
        return stats

    n = np.zeros(count, dtype=np.int64)
    mean = np.zeros(count)
    m2 = np.zeros(count)
    for chunk, stats in zip(chunks, map_chunks(chunks, seed, workers,
                                               chunk_stats)):
        for (base, k, _), block_stats in zip(chunk, stats):
            part = slice(base, base + k)
            n[part], mean[part], m2[part] = _merge_stats(
                (n[part], mean[part], m2[part]), block_stats)
    # the variance of each stratum's mean, 0 for a single row as in run_chunked
    var = m2 / np.maximum(n - 1, 1) / n * (n > 1)
    weights = sides.weights
    return MCEstimate(float(weights @ mean), math.sqrt(float(weights ** 2 @ var)),
                      int(n.sum()), seed, workers)


# --------------------------------------------------------------------------
# sides shared by the polymer and tube estimators
# --------------------------------------------------------------------------

def _ball_draw(table: BaseTable, radii: np.ndarray, dim: int, unit,
               frame: bool = False):
    """draw(rng, block, work) for balls: base value R_e * u_e for each
    element e of a run's base.  unit(dim, rng, count, out, work) writes the
    u_e of the block's count = n * k * rows base values, count points of
    R^dim, into out, the real coordinates of the base values, (count, dim)
    in (element, run, row) order, with its temporaries in work's buffers;
    they are then scaled in place by the radii.
    The base values have the base table's dtype: a complex value holds
    coordinates (2j, 2j + 1) as the real and imaginary part of entry j.

    With `frame`, the directions are drawn in a fixed rotation frame: the
    first element's u is e_0 = (1, 0, ...), and at dim 3 the second's is
    (t, sqrt(1 - t^2), 0), t = 2v - 1 for v uniform on [0, 1); unit
    draws the others only.  This is exact only for a row value that is a
    function of the norms of the non-base values (a ball polymer's
    acceptance; see the polymer module docstring)."""
    # per-base radii with the bases on axis 1: (n, bases)
    base_radii = radii[table.elems].T
    n = base_radii.shape[0]
    dtype = table.inv.dtype
    # elements whose direction the frame fixes: none, the first, or at
    # dim 3 the first two
    fixed = min(n, 2 if dim == 3 else 1) if frame else 0

    def draw(rng, block, work):
        base, k, rows = block
        h = work.buffer("h", (n, k, rows, dim))
        if fixed:
            h[0] = 0.0
            h[0, ..., 0] = 1.0
        if fixed == 2:
            second = h[1].reshape(-1, dim)
            t = rng.random(out=work.buffer("frame_t", (k * rows,)))
            t *= 2.0
            t -= 1.0
            second[:, 0] = t
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            np.sqrt(t, out=second[:, 1])
            second[:, 2] = 0.0
        if fixed < n:
            unit(dim, rng, (n - fixed) * k * rows,
                 h[fixed:].reshape(-1, dim), work)
        h *= base_radii[:, base:base + k, None, None]
        return h.view(dtype)

    return draw


def _beyond_radii(table: BaseTable, radii: np.ndarray):
    """outside(block, work, vals) for balls: whether each non-base value's
    norm exceeds its hyperplane's radius, (m, k, rows) bool."""
    # per-base squared radii with the bases on axis 1: (m, bases)
    out_radii_sq = (radii ** 2)[table.out].T

    def outside(block, work, vals):
        base, k, _ = block
        norms_sq = _norms_sq(vals)
        return np.greater(norms_sq, out_radii_sq[:, base:base + k, None],
                          out=work.buffer("compared", norms_sq.shape, bool))

    return outside


def _shape_groups(shapes, elements: np.ndarray):
    """groups(block) for warped shapes, on the elements of each base given
    by `elements` (bases, count): the block's (element, run) pairs,
    numbered element * k + run, grouped by shape, as (shape, pairs, size)
    for each distinct shape in order of first use.  One shape is the single
    group slice(None) of every pair; more are grouped by a stable sort of
    their shape indices, a radix sort in the smallest integer type."""
    distinct = list(dict.fromkeys(shapes))
    count = elements.shape[1]
    if len(distinct) == 1:
        return lambda block: [(distinct[0], slice(None), count * block[1])]
    shape_of = np.array([distinct.index(s) for s in shapes],
                        dtype=np.min_scalar_type(len(distinct) - 1))
    # the shapes of the elements with the bases on axis 1: (count, bases)
    by_base = shape_of[elements].T

    def groups(block):
        base, k, _ = block
        which = by_base[:, base:base + k].reshape(-1)
        order = np.argsort(which, kind="stable")
        counts = np.bincount(which, minlength=len(distinct))
        return zip(distinct, np.split(order, np.cumsum(counts)[:-1]), counts)

    return groups


def _shape_draw(table: BaseTable, shapes, width: int, sample):
    """draw(rng, block, work) for warped shapes: each base value e of a row
    sample(shapes[e], rng, count), `width` coordinates, (n, k, rows,
    width), from one sample call per distinct shape over its (element,
    run) pairs' rows (`_shape_groups`)."""
    groups = _shape_groups(shapes, table.elems)
    n = table.elems.shape[1]

    def draw(rng, block, work):
        _, k, rows = block
        h = work.buffer("h", (n, k, rows, width))
        pairs = h.reshape(n * k, rows, width)
        for shape, own, size in groups(block):
            pairs[own] = sample(shape, rng, int(size) * rows
                                ).reshape(-1, rows, width)
        return h

    return draw


def _shape_test(table: BaseTable, shapes, test):
    """outside(block, work, vals) for warped shapes: test(shapes[e], v) of
    each non-base value v, rows of `width` coordinates, as (m, k, rows)
    bool.  Each distinct shape is tested on the runs of the values that
    have it only (`_shape_groups`): their runs of values gathered, tested
    and scattered back."""
    groups = _shape_groups(shapes, table.out)

    def outside(block, work, vals):
        _, _, rows = block
        flags = work.buffer("flags", vals.shape[:3], bool)
        pair_flags = flags.reshape(-1, rows)
        pair_vals = vals.reshape(-1, rows, vals.shape[-1])
        for shape, own, _ in groups(block):
            v = pair_vals[own]          # (pairs, rows, width)
            pair_flags[own] = test(shape, v.reshape(-1, v.shape[-1])
                                   ).reshape(v.shape[:2])
        return flags

    return outside


# --------------------------------------------------------------------------
# the tube estimators
# --------------------------------------------------------------------------

def _tube_value(view: MatroidView, table: BaseTable, weight, outside):
    """value(block, work, vals) of the tube sides: weight(masks), the w / nb
    of each row's within-radius mask G, every element but the non-base ones
    flagged by outside(block, work, vals).  A base's own elements are
    always in G, so float rounding at |h_e| = R_e cannot drop x out of its
    own tube: nb >= 1 on every row."""
    # the bits of the non-base elements with the bases on axis 1: (m, bases)
    out_bits = _mask_bits(view.size)[table.out].T
    ground = np.int64(view.ground_mask)

    def value(block, work, vals):
        base, k, rows = block
        flags = outside(block, work, vals)
        bits = np.multiply(flags, out_bits[:, base:base + k, None],
                           out=work.buffer("bits", flags.shape, np.int64))
        masks = np.add.reduce(bits, axis=0,
                              out=work.buffer("masks", (k, rows), np.int64))
        np.bitwise_xor(masks, ground, out=masks)
        return weight(masks.reshape(-1)).reshape(k, rows)

    return value


def _region_estimate(view: MatroidView, d: int, weight, n_samples: int,
                     seed: int, workers: int, *, within: int | None = None,
                     shapes=None, g=None) -> MCEstimate:
    """Estimate of the integral over configurations x of
    weight(G(x)) * g(x), G(x) the within-radius mask: ball membership, or
    bottom membership of each hyperplane's shape when shapes are given.

    The stratified kernel runs on the tubes of the bases inside `within`
    (the ground set by default), each of base weight vol_B, each row of
    value w / nb (times g(x)); see the module docstring.  weight(view)
    compiles what the weight reads and returns a function mapping an int64
    mask array to the rows' float values w / nb: w, which must vanish on
    masks holding no base inside `within`, over nb[G & within].  d and the
    field are refused before weight(view) compiles anything.
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
        draw = _ball_draw(table, radii, d, uniform_ball)
        outside = _beyond_radii(table, radii)
        body = ball_volume(d) * radii ** d
    else:
        draw = _shape_draw(table, shapes, d,
                           lambda s, rng, count: s.sample_bottom(rng, count))
        outside = _shape_test(table, shapes, lambda s, v: ~s.bottom_contains(v))
        body = np.array([s.bottom_volume for s in shapes])
    vol = table.abs_det ** -d * np.prod(body[table.elems], axis=1)
    sides = _Sides(table, draw, _tube_value(view, table, weight, outside), vol)
    return _polymer_estimate(view, n_samples, seed, workers, sides, g=g)


def _chi_weight(view: MatroidView):
    """Weight of the pressure estimators: chi_G(0) from the chi table, over
    the nb[G] bases inside G from the nb table."""
    chi, nb = view.chi_table, view.nb_table
    return lambda masks: chi[masks] / nb[masks]


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
        return lambda masks: ((masks & subset_mask) == subset_mask) / nb
    return weight


def _parity(subset_mask: int) -> float:
    return -1.0 if popcount(subset_mask) & 1 else 1.0


# --------------------------------------------------------------------------
# matroidal Mayer coefficients
# --------------------------------------------------------------------------

def mmc_d0(arr, subset_mask: int) -> int:
    """The d = 0 coefficient of a spanning set: (-1)^|H| exactly."""
    if not view_of(arr).is_spanning(subset_mask):
        raise SpanningError("subset does not span")
    return -1 if popcount(subset_mask) & 1 else 1


def mmc_mc(arr, subset_mask: int, d: int, n_samples: int,
           seed: int, workers: int = 1) -> MCEstimate:
    """Unbiased estimate of (-1)^|H| * vol{x : ||h_e(x)|| <= R_e for e in H},
    sampling the tubes of the bases inside H."""
    return _region_estimate(view_of(arr), d, _contains(subset_mask),
                            n_samples, seed, workers, within=subset_mask
                            ).scaled(_parity(subset_mask))


def pressure_exact_d0(arr) -> int:
    """d = 0 collapses the sum over spanning sets to the characteristic
    polynomial at zero."""
    return view_of(arr).chi_at_zero()


def pressure_coefficient(arr, d: int, n_samples: int, seed: int,
                         workers: int = 1) -> MCEstimate:
    """Sum over spanning subsets of the d-dimensional coefficients, via the
    one-pass region decomposition: sample x, find its within-radius subset G,
    and add chi_G(0), read from the view's chi table (0 unless G has full
    rank)."""
    if d == 0:
        return MCEstimate(float(pressure_exact_d0(arr)), 0.0, 0, seed, workers)
    return _region_estimate(view_of(arr), d, _chi_weight, n_samples, seed,
                            workers)


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


def mmc_asa(arr, subset_mask: int, shapes, d: int,
            n_samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """(-1)^|H| * vol{x : h_e(x) in bottom_e for e in H}."""
    view = view_of(arr)
    shapes = _check_shapes(view.arrangement, shapes, d)
    return _region_estimate(view, d, _contains(subset_mask), n_samples,
                            seed, workers, within=subset_mask, shapes=shapes
                            ).scaled(_parity(subset_mask))


def asa_pressure_coefficient(arr, shapes, d: int, n_samples: int,
                             seed: int, workers: int = 1) -> MCEstimate:
    """Region-decomposition estimator with ball membership replaced by bottom
    membership of each hyperplane's shape."""
    view = view_of(arr)
    shapes = _check_shapes(view.arrangement, shapes, d)
    return _region_estimate(view, d, _chi_weight, n_samples,
                            seed, workers, shapes=shapes)
