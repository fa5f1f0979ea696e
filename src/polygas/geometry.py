"""Sphere sampling, warped-product surfaces (sphere / cylinder / capped
cylinder) with their bottoms, and bounding boxes for the Monte Carlo
integration domains.

All surfaces here factor as S^1 x_rho bottom: the surface measure pushes
forward to 2*pi times Lebesgue measure on the bottom, so a uniform surface
point is a bottom-uniform y and a uniform point of the unit circle
(`sample_unit_sphere(2, ...)`) scaled by the circle radius rho(y).  The
sphere and ball draws here are the only ones: the ball polymers draw
`sample_unit_sphere` points, the ball tubes `uniform_ball` points.

Both are trig-free and, up to dim 4, free of normal deviates, which cost
about four times a uniform one: they build on points uniform in the unit
disk minus its centre (`_unit_disk`), uniform points of the square
redrawn where they fall outside.  The circle is p / |p| (von Neumann
1951), S^2 and S^3 are Marsaglia's (1972) closed forms of one and two
disk points, the ball of R^2 is the disk point itself, and the ball of R
is 2u - 1.  The sphere at dim 1 and from dim 5 on normalises Gaussian
points (a polar-method Gaussian built on disk points does not pay there),
and a ball from dim 3 on scales a sphere point by a radius.  Temporaries
live in the buffers of a `_Work`: the stratified kernel hands each draw
its chunk's, and a draw made without one makes its own.
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


class _Work:
    """Reusable buffers: one flat array per name, made at the name's first
    request and grown when a later request asks for more, and viewed by
    each request as a C-contiguous array of the shape it asks for.  The
    stratified kernel keeps one per chunk; a draw made without one makes
    its own, and the same draws come out either way."""

    def __init__(self):
        self._flat = {}

    def buffer(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        assert flat is None or flat.dtype == dtype, (name, shape, dtype)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _unit_disk(rng: np.random.Generator, points: np.ndarray,
               work: _Work) -> np.ndarray:
    """Fill points, a C-contiguous (count, 2) float array, with points
    uniform in the unit disk minus its centre, and return their squared
    norms, (count,), in a buffer of work.  Each row starts as a uniform
    point of the square [-1, 1)^2; the rows outside the disk or at its
    centre are then drawn again, in row order, from batches of fresh
    square points half again as many as they need, keeping the candidates
    that land inside, until no row is left.  So the draws depend only on
    the generator's state and count."""
    count = points.shape[0]
    sq = work.buffer("disk_sq", (count,))
    rng.random(out=points)
    points *= 2.0
    points -= 1.0
    np.multiply(points[:, 0], points[:, 0], out=sq)
    y_sq = work.buffer("disk_y_sq", (count,))
    np.multiply(points[:, 1], points[:, 1], out=y_sq)
    sq += y_sq
    rejected = np.greater_equal(sq, 1.0, out=work.buffer("disk_out", (count,), bool))
    if not sq.all():        # a point at the centre (probability 2^-106 a row)
        rejected |= sq == 0.0
    todo = np.flatnonzero(rejected)
    # each point as one complex entry: a row gather and scatter of 2-float
    # rows costs ~5x more
    as_complex = points.view(complex)[:, 0]
    while todo.size:
        fresh = rng.random((todo.size + (todo.size >> 1) + 8, 2))
        fresh *= 2.0
        fresh -= 1.0
        fresh_sq = _norms_sq(fresh)
        inside = np.flatnonzero((fresh_sq < 1.0) & (fresh_sq > 0.0))[:todo.size]
        rows, todo = todo[:inside.size], todo[inside.size:]
        as_complex[rows] = fresh.view(complex)[inside, 0]
        sq[rows] = fresh_sq[inside]
    return sq


def sample_unit_sphere(dim: int, rng: np.random.Generator, size: int,
                       out: np.ndarray | None = None,
                       work: _Work | None = None):
    """Uniform points on S^(dim-1), unit norm to 1e-12.  At dim 2, 3 and 4
    they are built from points p = (u, v) uniform in the unit disk minus
    its centre, s = |p|^2 (`_unit_disk`): p / sqrt(s) on the circle (von
    Neumann 1951); (2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s) on S^2, and
    from two disk points (u1, v1, u2 f, v2 f), f = sqrt((1 - s1) / s2), on
    S^3 (Marsaglia 1972).  At dim 1 and from dim 5 on they are Gaussian
    points normalised.  With `out`, a C-contiguous (size, dim) float array,
    the points are written there and out is returned; `work` holds the
    draw's temporaries (a fresh _Work without it).  The draws are the same
    with or without either."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if out is None:
        out = np.empty((size, dim))
    elif out.shape != (size, dim) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape "
                         f"{(size, dim)}, not {out.shape}")
    if work is None:
        work = _Work()
    if dim == 2:
        norm = _unit_disk(rng, out, work)
        np.sqrt(norm, out=norm)
        out[:, 0] /= norm
        out[:, 1] /= norm
    elif dim == 3:
        disk = work.buffer("disk", (size, 2))
        sq = _unit_disk(rng, disk, work)
        np.multiply(sq, -2.0, out=out[:, 2])
        out[:, 2] += 1.0
        np.subtract(1.0, sq, out=sq)
        np.sqrt(sq, out=sq)
        sq *= 2.0
        np.multiply(disk[:, 0], sq, out=out[:, 0])
        np.multiply(disk[:, 1], sq, out=out[:, 1])
    elif dim == 4:
        # the two disk points of a row are its two coordinate pairs
        sq = _unit_disk(rng, out.reshape(2 * size, 2), work)
        first, second = sq[0::2], sq[1::2]
        np.subtract(1.0, first, out=first)
        np.divide(first, second, out=first)
        np.sqrt(first, out=first)
        out[:, 2] *= first
        out[:, 3] *= first
    else:
        g = rng.standard_normal(out=out)
        norms = np.sqrt(_norms_sq(g))[:, None]
        # resample the (probability-zero) degenerate rows rather than dividing by ~0
        while np.any(norms < 1e-12):
            bad = norms[:, 0] < 1e-12
            g[bad] = rng.standard_normal((int(bad.sum()), dim))
            norms = np.sqrt(_norms_sq(g))[:, None]
        g /= norms
    return out


def uniform_ball(dim: int, rng: np.random.Generator, size: int,
                 out: np.ndarray | None = None, work: _Work | None = None):
    """Uniform points in the unit ball of R^dim (empty columns for dim = 0):
    2u - 1 for u uniform on [0, 1) at dim 1, a point of the unit disk minus
    its centre at dim 2 (`_unit_disk`), else a sphere point scaled by a
    radius r^(1/dim), r uniform on [0, 1).  With `out`, a C-contiguous
    (size, dim) float array, the points are written there and out is
    returned; `work` holds the draw's temporaries (a fresh _Work without
    it).  The draws are the same with or without either."""
    if out is None:
        out = np.empty((size, dim))
    if work is None:
        work = _Work()
    if dim == 1:
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
    elif dim == 2:
        _unit_disk(rng, out, work)
    elif dim > 2:
        sample_unit_sphere(dim, rng, size, out=out, work=work)
        radius = rng.random(out=work.buffer("ball_radius", (size,)))
        radius **= 1.0 / dim
        out *= radius[:, None]
    return out


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

    def warp(self, y) -> np.ndarray:
        """rho on the bottom; clamped at zero outside it."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "sphere":
            return np.sqrt(np.maximum(1.0 - _norms_sq(y), 0.0))
        u, t = y[:, :-1], y[:, -1]
        u2 = _norms_sq(u)
        if self.kind == "cylinder":
            inside_axis = np.abs(t) <= self.length / 2.0
            return np.where(inside_axis, np.sqrt(np.maximum(1.0 - u2, 0.0)), 0.0)
        overhang = np.maximum(np.abs(t) - self.length / 2.0, 0.0)
        return np.sqrt(np.maximum(1.0 - u2 - overhang ** 2, 0.0))

    def bottom_contains(self, y) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "sphere":
            return _norms_sq(y) <= 1.0
        u, t = y[:, :-1], y[:, -1]
        u2 = _norms_sq(u)
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
        the bottom, the first two coordinates a unit-circle point
        (`sample_unit_sphere(2, ...)`) scaled by rho(y).  Total measure =
        surface_measure_total(self)."""
        y = self.sample_bottom(rng, size)
        w = sample_unit_sphere(2, rng, size)
        w *= self.warp(y)[:, None]
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
