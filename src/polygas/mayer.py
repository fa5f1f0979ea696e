"""Matroidal Mayer coefficients: exact at d = 0, Monte Carlo for d >= 1,
plus the one-pass region-decomposition estimator for the pressure-series
coefficient and the warped-surface (bottom membership) variants.

Every region estimator is one call of the tube kernel `_region_estimate`.
A configuration x with within-radius mask G(x) lies in the tube of every
base inside G(x), and only spanning masks carry weight, so the kernel draws
x from the mixture of base tubes: base B with probability proportional to
its tube volume vol_B = |det B|^-d * prod_{e in B} vol(ball_e or bottom_e)
(by the guide-table inverse CDF of `_base_picker`, equal to a binary
search), then the values h_e(x) (e in B) uniformly in their balls or
bottoms, and x by the base's exact inverse; the bases, their elements,
inverses and |det B| are the rows of the view's base table
(`MatroidView.base_table`, or its rows inside a subset).  That x has density
nb[G(x)] / V, nb[S] the number of bases inside S and V the sum of the
vol_B, so each sample adds V * weight(G(x)) (times g(x)) / nb[G(x)]:
one-sample multiple importance sampling with the balance heuristic (Veach
and Guibas, SIGGRAPH 1995).  No
sample lands where the weight is 0 for want of a base, and an arrangement
with a single base gets an exact (zero-variance) answer.  The weights are
the chi table (pressure coefficients), a subset indicator scaled by
(-1)^|H| (single coefficients, sampled from the tubes of the bases inside
H), and the order-safe base count (the safe projection law in polymer.py).
Each weight brings its own nb: the nb table next to the chi table, the
constant base count of H for the indicator (nonzero only where G contains
H), and a count per distinct mask for the safe count; so only the chi
weights need the tables over all 2^|E| subsets.
The tests check every estimator against an independent slow path, a
uniform bounding-box sampler (tests/oracles.py).

Estimation contract: the scheduler `map_chunks` cuts work into fixed-size
chunks, one deterministic random stream per chunk, and returns the chunks'
results in chunk order.  `run_chunked` merges them into one (n, mean, m2);
the polymer kernel (polymer.py) merges them per base.  Worker count only
decides which thread runs which chunk, so results are bit-identical across
worker counts for a fixed (seed, n_samples).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .arrangement import Arrangement, _mask_bits
from .geometry import ASAShape, RNGStream, ball_volume, uniform_ball
from .matroid import MatroidView, popcount

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
# the region kernel
# --------------------------------------------------------------------------

# rows per block of the tube and polymer kernels: bounds the memory of the
# tube kernel's gathered (rows, n, n) inverses, of the polymer kernel's
# block buffers and of the functional values
BLOCK = 8192


def _ball_draw(arr: Arrangement, d: int):
    """draw(rng, elems) of the tube kernel for balls: h_e uniform in the
    radius-R_e ball of R^d for each e in `elems` (an int array), shaped
    elems.shape + (d,); cyclotomic arrangements pair the d real coordinates
    into d/2 complex ones."""
    radii = np.asarray(arr.radii, dtype=float)

    def draw(rng, elems):
        r = radii[elems]
        if d == 1:
            return (rng.uniform(-1.0, 1.0, r.shape) * r)[..., None]
        h = uniform_ball(d, rng, r.size).reshape(*r.shape, d) * r[..., None]
        if not arr.complexified:
            h = h[..., 0::2] + 1j * h[..., 1::2]
        return h

    return draw


def _shape_draw(shapes, width: int, sample):
    """draw(rng, elems) of the tube and polymer kernels for warped shapes:
    for each e in `elems` (an int array) a point sample(shapes[e], rng,
    count) with `width` coordinates, shaped elems.shape + (width,), from one
    sample call per distinct shape."""
    distinct = list(dict.fromkeys(shapes))
    shape_of = np.array([distinct.index(s) for s in shapes])

    def draw(rng, elems):
        # the loop's draws for one shape, without its gather and scatter:
        # perfbench warped_projection wall_s 0.96 -> 0.91 s, 5 of 6 pairs
        # (2-vCPU VM)
        if len(distinct) == 1:
            return sample(distinct[0], rng, elems.size).reshape(
                elems.shape + (width,))
        which = shape_of[elems]
        h = np.empty(elems.shape + (width,))
        for i, shape in enumerate(distinct):
            pick = which == i
            h[pick] = sample(shape, rng, int(np.count_nonzero(pick)))
        return h

    return draw


def _base_picker(cdf: np.ndarray):
    """pick(u) = min(searchsorted(cdf, u, side="right"), len(cdf) - 1) for
    an array of u in [0, 1), cdf nondecreasing: the base of each uniform u
    under the mixture, by indexed search (Chen and Asau 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2.4).

    A guide table holds, for each of K = len(cdf) cells [j/K, (j+1)/K), the
    first index whose cdf reaches j/K, a lower bound on the answer for
    every u in the cell; one forward step then finds most answers.  Each
    row is checked against cdf[i-1] <= u < cdf[i] (with -inf and +inf past
    the ends), which holds for exactly one i, the searchsorted answer; the
    rows that fail go to np.searchsorted.  So the result equals the binary
    search's for every u, without its per-row branching.
    """
    size = cdf.size
    guide = np.searchsorted(cdf, np.arange(size) / size)
    bounds = np.concatenate(([-np.inf], cdf, [np.inf]))

    def pick(u):
        i = guide[np.minimum((u * size).astype(np.intp), size - 1)]
        i += bounds[i + 1] <= u
        miss = (bounds[i] > u) | (bounds[i + 1] <= u)
        if miss.any():
            i[miss] = np.searchsorted(cdf, u[miss], side="right")
        return np.minimum(i, size - 1)

    return pick


def _region_estimate(view: MatroidView, d: int, weight, n_samples: int,
                     seed: int, workers: int, *, within: int | None = None,
                     shapes=None, g=None, stream_base: int = 0) -> MCEstimate:
    """Estimate of the integral over configurations x of
    weight(G(x)) * g(x), G(x) the within-radius mask: ball membership, or
    bottom membership of each hyperplane's shape when shapes are given.

    x is drawn from a mixture of base tubes.  For a base B inside `within`
    (the ground set by default), tube_B = {x : h_e(x) in body_e for e in B}
    has volume vol_B = |det B|^-d * prod over e in B of vol(body_e), with d
    real dimensions per point (|det_C B| for cyclotomic arrangements).
    Picking B with probability vol_B / V, V the sum of the vol_B, and x
    uniform in tube_B gives x the density nb[G(x) & within] / V, so each
    sample contributes V * w * g(x) / nb.  weight maps an int64 mask array
    to (w, nb): the per-sample weights w, which must vanish on masks holding
    no base inside `within`, and nb[G & within], an array, or a scalar where
    it is constant on the support of w (as for `_contains`).  The drawn
    base's bits are ORed into the mask, so float rounding at |h_e| = R_e
    cannot drop x out of its own tube: nb >= 1 on every sample.
    """
    arr = view.arrangement
    if d < 1:
        raise ValueError("d must be >= 1 for Monte Carlo estimation")
    if not arr.complexified and d % 2:
        raise ValueError("cyclotomic arrangements need even d")
    table = view.base_table
    if within is not None:
        table = table.inside(within)
    if shapes is None:
        draw = _ball_draw(arr, d)
        body = ball_volume(d) * np.asarray(arr.radii) ** d
    else:
        bits = _mask_bits(arr.size)
        draw = _shape_draw(shapes, d,
                           lambda s, rng, count: s.sample_bottom(rng, count))
        body = np.array([s.bottom_volume for s in shapes])
    vol = table.abs_det ** -d * np.prod(body[table.elems], axis=1)
    total = float(vol.sum())
    pick = _base_picker(np.cumsum(vol) / total)

    def mmc_values(rng, count):
        base = pick(rng.random(count))
        h = draw(rng, table.elems[base])
        values = np.empty(count)
        for start in range(0, count, BLOCK):
            rows = slice(start, start + BLOCK)
            b = base[rows]
            x = table.inv[b] @ h[rows]
            if shapes is None:
                masks = arr.gamma_masks(x)
            else:
                vals = arr.values(x)
                inside = np.stack([shapes[e].bottom_contains(vals[:, e, :])
                                   for e in range(arr.size)], axis=1)
                masks = inside @ bits
            masks |= table.masks[b]
            w, nb = weight(masks)
            w = w * (total / nb)
            values[rows] = w if g is None else w * g(x)
        return values

    return run_chunked(n_samples, seed, workers, mmc_values,
                       stream_base=stream_base)


def _chi_weight(view: MatroidView):
    """Weight of the pressure estimators: chi_G(0) from the chi table, over
    the nb[G] bases inside G from the nb table."""
    chi, nb = view.chi_table, view.nb_table
    return lambda masks: (chi[masks], nb[masks])


def _contains(view: MatroidView, subset_mask: int):
    """Weight of a single coefficient, whose x is drawn from the tubes of
    the bases inside the spanning subset_mask: 1 where the mask contains
    subset_mask, else 0.  Wherever it is 1, G & subset_mask is subset_mask,
    so nb is the constant number of bases inside subset_mask, and no table
    is needed."""
    nb = len(view.bases_of(subset_mask))
    return lambda masks: ((masks & subset_mask) == subset_mask, nb)


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
    if not view.is_spanning(subset_mask):
        raise SpanningError("subset does not span")
    return _region_estimate(view, d, _contains(view, subset_mask), n_samples,
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
    return _region_estimate(view, d, _chi_weight(view), n_samples,
                            seed, workers)


# --------------------------------------------------------------------------
# warped-surface variant (per-hyperplane bottoms instead of balls)
# --------------------------------------------------------------------------

def _check_shapes(arr: Arrangement, shapes, d: int):
    shapes = list(shapes)
    if len(shapes) != arr.size:
        raise ValueError("need one shape per hyperplane")
    for s in shapes:
        if not isinstance(s, ASAShape):
            raise TypeError("shapes must be ASAShape instances")
        if s.bottom_dim != d:
            raise ValueError(
                f"shape bottom dimension {s.bottom_dim} does not match d={d}")
    if not arr.complexified:
        raise ValueError("warped-surface coefficients need a real arrangement")
    return shapes


def mmc_asa(view: MatroidView, subset_mask: int, shapes, d: int,
            n_samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """(-1)^|H| * vol{x : h_e(x) in bottom_e for e in H}."""
    if not view.is_spanning(subset_mask):
        raise SpanningError("subset does not span")
    shapes = _check_shapes(view.arrangement, shapes, d)
    return _region_estimate(view, d, _contains(view, subset_mask), n_samples,
                            seed, workers, within=subset_mask, shapes=shapes
                            ).scaled(_parity(subset_mask))


def asa_pressure_coefficient(view: MatroidView, shapes, d: int, n_samples: int,
                             seed: int, workers: int = 1) -> MCEstimate:
    """Region-decomposition estimator with ball membership replaced by bottom
    membership of each hyperplane's shape."""
    shapes = _check_shapes(view.arrangement, shapes, d)
    return _region_estimate(view, d, _chi_weight(view), n_samples,
                            seed, workers, shapes=shapes)
