"""Matroidal Mayer coefficients: exact at d = 0, Monte Carlo for d >= 1,
plus the one-pass region-decomposition estimator for the pressure-series
coefficient and the warped-surface (bottom membership) variants.

Every box estimator is one call of the region kernel `_region_estimate`:
draw x uniformly in the bounding box, find its within-radius mask G(x), and
average weight(G(x)) (times g(x)) times the box volume.  The weights are
the chi table (pressure coefficients), a subset indicator scaled by
(-1)^|H| (single coefficients), and the order-safe base count (the safe
projection law in polymer.py).

Estimation contract: work is cut into fixed-size chunks, one deterministic
random stream per chunk, merged in chunk order.  Worker count only decides
which thread runs which chunk, so results are bit-identical across worker
counts for a fixed (seed, n_samples).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arrangement import Arrangement, _mask_bits
from .geometry import ASAShape, RNGStream, bounding_halfwidth
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
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * nb / n
        m2 = max(self._m2() + other._m2() + delta * delta * na * nb / n, 0.0)
        stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
        return MCEstimate(mean, stderr, n, self.seed, self.workers)

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


def mc_sum(estimates, seed: int, workers: int) -> MCEstimate:
    """Sum of independent estimates: means add, variances add."""
    mean = sum(e.mean for e in estimates)
    var = sum(e.stderr ** 2 for e in estimates)
    n = sum(e.n_samples for e in estimates)
    return MCEstimate(mean, math.sqrt(var), n, seed, workers)


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

def _chunk_specs(n_samples: int, stream_base: int):
    specs = []
    offset = 0
    index = 0
    while offset < n_samples:
        count = min(CHUNK, n_samples - offset)
        specs.append((stream_base + index, count))
        offset += count
        index += 1
    return specs


def _stats_of(values: np.ndarray):
    n = values.size
    mean = float(values.mean())
    m2 = float(np.sum((values - mean) ** 2))
    return (n, mean, m2)


def _merge_stats(a, b):
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return (n, mean, m2)


def run_chunked(n_samples: int, seed: int, workers: int, values_fn,
                stream_base: int = 0) -> MCEstimate:
    """Estimate the mean of values_fn(rng, count) samples.

    values_fn must return a float array of the requested length and draw all
    randomness from the generator it is handed.  Chunk boundaries depend only
    on n_samples, never on workers.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    specs = _chunk_specs(n_samples, stream_base)

    def work(spec):
        stream, count = spec
        rng = RNGStream(seed, stream).generator()
        return _stats_of(np.asarray(values_fn(rng, count), dtype=float))

    if workers == 1 or len(specs) == 1:
        results = [work(s) for s in specs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, specs))
    total = results[0]
    for r in results[1:]:
        total = _merge_stats(total, r)
    n, mean, m2 = total
    m2 = max(m2, 0.0)  # float cancellation can leave a tiny negative
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return MCEstimate(mean, stderr, n, seed, workers)


# --------------------------------------------------------------------------
# the region kernel
# --------------------------------------------------------------------------

def _draw_box(arr: Arrangement, rng, count: int, d: int, halfwidth: float):
    """Uniform box points: R^d per point for complexified arrangements;
    cyclotomic ones require even d and get C^(d/2) per point (the same d
    real numbers)."""
    if d < 1:
        raise ValueError("d must be >= 1 for Monte Carlo estimation")
    if not arr.complexified and d % 2:
        raise ValueError("cyclotomic arrangements need even d")
    pts = rng.uniform(-halfwidth, halfwidth, (count, arr.ambient_dim, d))
    if not arr.complexified:
        pts = pts[..., 0::2] + 1j * pts[..., 1::2]
    return pts


def _region_estimate(view: MatroidView, d: int, weight, n_samples: int,
                     seed: int, workers: int, *, shapes=None, g=None,
                     stream_base: int = 0) -> MCEstimate:
    """Box estimate of the integral over configurations x of
    weight(G(x)) * g(x), G(x) the within-radius mask: ball membership, or
    bottom membership of each hyperplane's shape when shapes are given.

    weight maps an int64 mask array to per-sample weights.  The box is the
    bounding box of the balls (or of the bottoms' outer radii).
    """
    arr = view.arrangement
    radii = None
    if shapes is not None:
        bits = _mask_bits(arr.size)
        radii = [s.bottom_outer_radius for s in shapes]
    box = bounding_halfwidth(view, radii=radii)
    vol = box.volume(d * arr.ambient_dim)

    def mmc_values(rng, count):
        pts = _draw_box(arr, rng, count, d, box.halfwidth)
        if shapes is None:
            masks = arr.gamma_masks(pts)
        else:
            vals = arr.values(pts)
            within = np.stack([shapes[e].bottom_contains(vals[:, e, :])
                               for e in range(arr.size)], axis=1)
            masks = within @ bits
        if g is None:
            return weight(masks) * vol
        return weight(masks) * g(pts) * vol

    return run_chunked(n_samples, seed, workers, mmc_values,
                       stream_base=stream_base)


def _contains(subset_mask: int):
    """Weight: 1 where the mask contains subset_mask, else 0."""
    return lambda masks: (masks & subset_mask) == subset_mask


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
    by uniform sampling in the bounding box."""
    if not view.is_spanning(subset_mask):
        raise SpanningError("subset does not span")
    return _region_estimate(view, d, _contains(subset_mask), n_samples, seed,
                            workers).scaled(_parity(subset_mask))


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
    chi = view.chi_table        # before the box: refuses oversized ground sets
    return _region_estimate(view, d, chi.__getitem__, n_samples, seed, workers)


def pressure_coefficient_enumerated(view: MatroidView, d: int, n_samples: int,
                                    seed: int, workers: int = 1) -> MCEstimate:
    """Cross-validation path: estimate each spanning subset's coefficient
    separately (n_samples each) and add them.  Exponential in the ground set;
    desk scale only."""
    if d == 0:
        return MCEstimate(float(pressure_exact_d0(view)), 0.0, 0, seed, workers)
    parts = [_region_estimate(view, d, _contains(mask), n_samples, seed,
                              workers, stream_base=h_index << 32
                              ).scaled(_parity(mask))
             for h_index, mask in enumerate(view.spanning_subsets())]
    return mc_sum(parts, seed, workers)


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
    return _region_estimate(view, d, _contains(subset_mask), n_samples, seed,
                            workers, shapes=shapes).scaled(_parity(subset_mask))


def asa_pressure_coefficient(view: MatroidView, shapes, d: int, n_samples: int,
                             seed: int, workers: int = 1) -> MCEstimate:
    """Region-decomposition estimator with ball membership replaced by bottom
    membership of each hyperplane's shape."""
    shapes = _check_shapes(view.arrangement, shapes, d)
    chi = view.chi_table
    return _region_estimate(view, d, chi.__getitem__, n_samples, seed, workers,
                            shapes=shapes)
