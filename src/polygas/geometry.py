"""Sphere sampling, warped-product surfaces (sphere / cylinder / capped
cylinder) with their bottoms, and bounding boxes for the Monte Carlo
integration domains.

All surfaces here factor as S^1 x_rho bottom: the surface measure pushes
forward to 2*pi times Lebesgue measure on the bottom, so uniform surface
points are sampled as (bottom-uniform y, uniform angle) with the circle
radius rho(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrangement import _checked_radii, _norms_sq
from .matroid import view_of


@dataclass(frozen=True)
class RNGStream:
    """Deterministic per-chunk random stream: the same (seed, stream) pair
    yields the same draws no matter how many workers run."""

    seed: int
    stream: int

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^(dim-1) in R^dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim (1 for dim = 0), by the
    recurrence V_d = V_(d-2) 2 pi / d from V_0 = 1 and V_1 = 2, so that
    V_1 = 2 and V_2 = pi exactly (math.gamma gives V_1 = 2 - 2^-52)."""
    if dim < 0:
        raise ValueError("dim must be >= 0")
    volume = 2.0 if dim % 2 else 1.0
    for d in range(2 + dim % 2, dim + 1, 2):
        volume *= 2.0 * math.pi / d
    return volume


def sample_unit_sphere(dim: int, rng: np.random.Generator, size: int,
                       out: np.ndarray | None = None):
    """Uniform points on S^(dim-1) by Gaussian normalization; unit norm to
    1e-12.  With `out`, a C-contiguous (size, dim) float array, the points
    are written there (the same draws) and out is returned."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if out is None:
        g = rng.standard_normal((size, dim))
    else:
        if out.shape != (size, dim):
            raise ValueError(f"out has shape {out.shape}, not {(size, dim)}")
        g = rng.standard_normal(out=out)
    norms = np.sqrt(_norms_sq(g))[:, None]
    # resample the (probability-zero) degenerate rows rather than dividing by ~0
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.sqrt(_norms_sq(g))[:, None]
    g /= norms
    return g


def uniform_ball(dim: int, rng: np.random.Generator, size: int):
    """Uniform points in the unit ball of R^dim (empty columns for dim = 0)."""
    if dim == 0:
        return np.zeros((size, 0))
    direction = sample_unit_sphere(dim, rng, size)
    radius = rng.random(size) ** (1.0 / dim)
    return direction * radius[:, None]


# --------------------------------------------------------------------------
# warped-product surfaces
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ASAShape:
    """A surface {x : x_1^2 + x_2^2 = rho(x_3..x_D)^2} over a bottom region
    in R^(D-2), with the hat-box property: surface measure = 2*pi x Lebesgue
    on the bottom.

    kinds:
      sphere(D)              bottom = unit ball B^(D-2)
      cylinder(D, L)         bottom = B^(D-3) x [-L/2, L/2]
      capped_cylinder(D, L)  bottom = radius-1 capsule around that segment
    """

    kind: str
    dim: int
    length: float | None = None

    def __post_init__(self):
        if self.kind == "sphere":
            if self.dim < 2:
                raise ValueError("sphere needs dim >= 2")
        elif self.kind in ("cylinder", "capped_cylinder"):
            if self.dim < 3:
                raise ValueError(f"{self.kind} needs dim >= 3")
            if self.length is None or self.length <= 0:
                raise ValueError(f"{self.kind} needs a positive length")
        else:
            raise ValueError(f"unknown shape kind {self.kind!r}")

    @property
    def bottom_dim(self) -> int:
        return self.dim - 2

    def _axis_split(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return y[:, :-1], y[:, -1]

    def warp(self, y) -> np.ndarray:
        """rho on the bottom; clamped at zero outside it."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "sphere":
            r2 = np.sum(y * y, axis=1)
            return np.sqrt(np.maximum(1.0 - r2, 0.0))
        u, t = self._axis_split(y)
        u2 = np.sum(u * u, axis=1)
        if self.kind == "cylinder":
            inside_axis = np.abs(t) <= self.length / 2.0
            return np.where(inside_axis, np.sqrt(np.maximum(1.0 - u2, 0.0)), 0.0)
        overhang = np.maximum(np.abs(t) - self.length / 2.0, 0.0)
        return np.sqrt(np.maximum(1.0 - u2 - overhang ** 2, 0.0))

    def bottom_contains(self, y) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "sphere":
            return np.sum(y * y, axis=1) <= 1.0
        u, t = self._axis_split(y)
        u2 = np.sum(u * u, axis=1)
        if self.kind == "cylinder":
            return (u2 <= 1.0) & (np.abs(t) <= self.length / 2.0)
        overhang = np.maximum(np.abs(t) - self.length / 2.0, 0.0)
        return u2 + overhang ** 2 <= 1.0

    @property
    def bottom_volume(self) -> float:
        if self.kind == "sphere":
            return ball_volume(self.bottom_dim)
        if self.kind == "cylinder":
            return ball_volume(self.dim - 3) * self.length
        return ball_volume(self.dim - 3) * self.length + ball_volume(self.bottom_dim)

    @property
    def bottom_outer_radius(self) -> float:
        """Radius of the smallest origin-centred ball containing the bottom."""
        if self.kind == "sphere":
            return 1.0
        if self.kind == "cylinder":
            return math.sqrt(1.0 + (self.length / 2.0) ** 2)
        return 1.0 + self.length / 2.0

    def sample_bottom(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform (Lebesgue) points on the bottom."""
        if self.kind == "sphere":
            return uniform_ball(self.bottom_dim, rng, size)
        m = self.bottom_dim
        if self.kind == "cylinder":
            u = uniform_ball(m - 1, rng, size)
            t = rng.uniform(-self.length / 2.0, self.length / 2.0, size)
            return np.concatenate([u, t[:, None]], axis=1)
        # capsule = cylinder body + two half-balls; the caps are exactly the
        # image of a full ball under t -> t + sign(t) * L/2.  Each point
        # picks its branch first, and only that branch's points are drawn.
        v_body = ball_volume(m - 1) * self.length
        v_caps = ball_volume(m)
        pick_body = rng.random(size) < v_body / (v_body + v_caps)
        n_body = int(np.count_nonzero(pick_body))
        y = np.empty((size, m))
        y[pick_body, :-1] = uniform_ball(m - 1, rng, n_body)
        y[pick_body, -1] = rng.uniform(-self.length / 2.0, self.length / 2.0,
                                       n_body)
        cap = uniform_ball(m, rng, size - n_body)
        cap[:, -1] += np.sign(cap[:, -1]) * (self.length / 2.0)
        y[~pick_body] = cap
        return y

    def sample_surface(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform surface points via the hat-box factorization: y uniform on
        the bottom, the first two coordinates uniform on the circle of radius
        rho(y).  Total measure = surface_measure_total(self)."""
        y = self.sample_bottom(rng, size)
        rho = self.warp(y)
        theta = rng.uniform(0.0, 2.0 * math.pi, size)
        w = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
        return np.concatenate([w, y], axis=1)


def sphere_shape(dim: int) -> ASAShape:
    return ASAShape("sphere", dim)


def cylinder_shape(dim: int, length: float) -> ASAShape:
    return ASAShape("cylinder", dim, float(length))


def capped_cylinder_shape(dim: int, length: float) -> ASAShape:
    return ASAShape("capped_cylinder", dim, float(length))


def surface_measure_total(shape: ASAShape) -> float:
    """Total surface measure in closed form.

    sphere(D) = area(S^(D-1)); cylinder(D, L) = area(S^(D-2)) * L;
    capped_cylinder adds the two hemispherical caps, area(S^(D-1)).  Each
    equals 2*pi times the bottom volume.
    """
    if shape.kind == "sphere":
        return sphere_area(shape.dim)
    if shape.kind == "cylinder":
        return sphere_area(shape.dim - 1) * shape.length
    return sphere_area(shape.dim - 1) * shape.length + sphere_area(shape.dim)


# --------------------------------------------------------------------------
# bounding boxes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundingBox:
    """The cube [-M, M]^(total dims) used as the uniform sampling domain."""

    halfwidth: float


def bounding_halfwidth(arr, radii=None) -> BoundingBox:
    """Halfwidth M such that every configuration satisfying ||h_e(x)|| <= R_e
    for all e in some base has every coordinate within [-M, M].

    `arr` is an Arrangement, or a MatroidView of one whose base table is
    then reused.  Computed as max over bases B of (max row abs-sum of the
    exact inverse of B's normal matrix) * (max radius in B); every
    full-rank region contains a base, so the box contains all of them.  A
    tiny relative pad absorbs the float rounding of the exact bound.
    """
    view = view_of(arr)
    radii = np.asarray(view.arrangement.radii if radii is None
                       else _checked_radii(radii, view.size))
    table = view.base_table
    worst = (table.row_abs_sums.max(1) * radii[table.elems].max(1)).max()
    return BoundingBox(float(worst) * (1.0 + 1e-14))
