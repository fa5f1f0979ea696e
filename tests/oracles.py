"""Independent oracles used to freeze expected values.

Exact rational half-plane clipping in the plane: the d = 1 intersection
volumes of slab constraints |a . x| <= R are convex polygon areas, computed
here with Fraction arithmetic and no reference to the library's estimators.

Also the slow paths the exact layer is checked against: chi(0) by subset
expansion over rank calls, fundamental circuits and order-safe base counts
by a per-base exchange loop over rank calls, and rank and inverse by plain
Gaussian and Gauss-Jordan elimination with exact division over Q or
Q(zeta_k).  Their Q(zeta_k) entries are `FractionCyclotomic` values:
Fraction coefficients in Q[x]/Phi_k, reduced by polynomial division and
inverted by the extended Euclidean algorithm over Q, with Phi_k itself
computed over Fractions, so nothing of the library's integer arithmetic
in Z[zeta_k] is reused.  `integer_inverse` is a batch of one of the
library's `integer_inverses`.

And the slow paths the region estimators are checked against:
`box_estimate`, which draws configurations uniformly in the bounding box of
the base tubes instead of tube by tube, and
`pressure_coefficient_enumerated`, one tube-kernel run per spanning subset
(`spanning_subsets`), added by `mc_sum`.

And the slow paths the polymer volumes are checked against:
`per_base_polymer_estimate` (base by base, `per_base_polymer_parts`),
one chunked run per base with its own block
of random streams, which solves for the configuration and applies the
non-base functionals to it, with per-base sides (`ball_sides`,
`surface_sides`) that loop over hyperplanes, the ball directions drawn
as normalised Gaussian points (`gaussian_sphere`), not by the library's
sphere draw; and
`empty_strata_by_fractions`, the strata the ball kernel may skip, by one
Fraction inverse per base.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from polygas.arrangement import _mask_bits
from polygas.exact_linalg import Cyclotomic, FieldMismatchError, integer_inverses
from polygas.geometry import bounding_halfwidth
from polygas.matroid import mask_elements
from polygas.mayer import (MCEstimate, _contains, _parity, _region_estimate,
                           pressure_exact_d0, run_chunked)


def clip_halfplane(poly, a, b, c):
    """Keep {(x, y) : a x + b y <= c} of a convex polygon (CCW vertex list of
    Fraction pairs).  Sutherland-Hodgman with exact intersections."""
    out = []
    m = len(poly)
    for i in range(m):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % m]
        p_in = a * px + b * py <= c
        q_in = a * qx + b * qy <= c
        if p_in:
            out.append((px, py))
        if p_in != q_in:
            # intersection of segment pq with the line a x + b y = c
            denom = a * (qx - px) + b * (qy - py)
            t = (c - a * px - b * py) / denom
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def polygon_area(poly):
    s = Fraction(0)
    m = len(poly)
    for i in range(m):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % m]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def slab_region_area(normals, radii=None, box=10):
    """Exact area of {x in R^2 : |n . x| <= R_n for all normals}."""
    b = Fraction(box)
    poly = [(-b, -b), (b, -b), (b, b), (-b, b)]
    for idx, n in enumerate(normals):
        r = Fraction(radii[idx]) if radii is not None else Fraction(1)
        a0, a1 = Fraction(n[0]), Fraction(n[1])
        poly = clip_halfplane(poly, a0, a1, r)
        if not poly:
            return Fraction(0)
        poly = clip_halfplane(poly, -a0, -a1, r)
        if not poly:
            return Fraction(0)
    return polygon_area(poly)


def interval_region_length(normals, radii=None):
    """Exact length of {x in R : |n x| <= R_n}."""
    lo, hi = Fraction(-10 ** 6), Fraction(10 ** 6)
    for idx, (n,) in enumerate(normals):
        r = Fraction(radii[idx]) if radii is not None else Fraction(1)
        n = Fraction(n)
        if n == 0:
            continue
        lo = max(lo, -r / abs(n))
        hi = min(hi, r / abs(n))
    return max(hi - lo, Fraction(0))


def connected_graphs(m):
    """All connected graphs on m labelled vertices, as edge tuples."""
    pairs = list(combinations(range(m), 2))
    found = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[p] for p in range(len(pairs)) if mask >> p & 1]
        parent = list(range(m))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for (i, j) in edges:
            parent[find(i)] = find(j)
        if len({find(v) for v in range(m)}) == 1:
            found.append(tuple(edges))
    return found


def gauge_normal(m, i, j):
    """Row of the difference functional x_i - x_j (0-based, i < j) after the
    gauge x_{m-1} = 0, as Fractions of length m - 1."""
    row = [Fraction(0)] * (m - 1)
    row[i] = Fraction(1)
    if j < m - 1:
        row[j] = Fraction(-1)
    return row


def hard_rod_pressure_coefficient(m):
    """Sum over connected graphs on m vertices of (-1)^edges times the exact
    volume of the gauge-fixed slab intersection (d = 1).  Supports m = 2, 3."""
    total = Fraction(0)
    for edges in connected_graphs(m):
        normals = [gauge_normal(m, i, j) for (i, j) in edges]
        if m == 2:
            vol = interval_region_length([(row[0],) for row in normals])
        elif m == 3:
            vol = slab_region_area(normals)
        else:
            raise ValueError("exact clipping oracle implemented for m <= 3")
        total += (-1) ** len(edges) * vol
    return total


def _unit_ball_volume(d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _lens_volume(d, b, c, t):
    """Volume of B(0, b) & B(y, c) in R^d at |y| = t, for t strictly between
    |b - c| and b + c: two caps, in closed form for d = 1, 2, 3."""
    if d == 1:
        return b + c - t
    if d == 2:
        return (b * b * np.arccos((t * t + b * b - c * c) / (2 * t * b))
                + c * c * np.arccos((t * t + c * c - b * b) / (2 * t * c))
                - 0.5 * np.sqrt((b + c - t) * (t + b - c) * (t - b + c)
                                * (t + b + c)))
    if d == 3:
        return (math.pi * (b + c - t) ** 2
                * (t * t + 2 * t * (b + c) - 3 * (b - c) ** 2) / (12 * t))
    raise ValueError("lens volumes are implemented for d = 1, 2, 3")


def three_body_coefficient(d, radii):
    """Pressure coefficient of braid(3) at d with radii (a, b, c), one per
    hyperplane in any order:

        V_d^2 (a^d b^d + a^d c^d + b^d c^d) - int_{|y| < a} lens(b, c, |y|) dy,

    the three two-edge trees less the triangle, whose lens volume
    vol(B(0, b) & B(y, c)) is V_d min(b, c)^d up to |y| = |b - c|, closed
    form (`_lens_volume`) up to b + c, and 0 beyond.  The radial integral
    is split at |b - c| and b + c, and each piece inside [0, a] is
    integrated by 64-node Gauss-Legendre in theta, t = mid - half
    cos(theta), which smooths the square-root ends of the d = 2 lens."""
    a, b, c = (float(r) for r in radii)
    v = _unit_ball_volume(d)
    x, w = np.polynomial.legendre.leggauss(64)
    theta = math.pi * (x + 1) / 2
    triangle = 0.0
    cuts = [0.0, abs(b - c), b + c]
    for lo, hi in zip(cuts, cuts[1:]):
        lo, hi = min(lo, a), min(hi, a)
        if hi <= lo:
            continue
        t = (lo + hi) / 2 - (hi - lo) / 2 * np.cos(theta)
        dt = w * math.pi / 2 * (hi - lo) / 2 * np.sin(theta)
        lens = (np.full_like(t, v * min(b, c) ** d) if hi <= abs(b - c)
                else _lens_volume(d, b, c, t))
        triangle += d * v * float(np.sum(t ** (d - 1) * lens * dt))
    trees = v * v * ((a * b) ** d + (a * c) ** d + (b * c) ** d)
    return trees - triangle


def chi_by_expansion(view, mask):
    """Sum over subsets T of `mask` with full rank of (-1)^|T|, one rank call
    per subset: chi_mask(0) for a spanning mask, 0 for any other."""
    total = 0
    sub = mask
    while True:
        if view.rank_of(sub) == view.full_rank:
            total += -1 if bin(sub).count("1") & 1 else 1
        if sub == 0:
            return total
        sub = (sub - 1) & mask


def circuit_by_rank(view, base, e):
    """The fundamental circuit of base + e from rank calls: e plus every b
    in the base whose exchange base - b + e has full rank."""
    circuit = 1 << e
    for b in mask_elements(base):
        if view.rank_of((base & ~(1 << b)) | (1 << e)) == view.full_rank:
            circuit |= 1 << b
    return circuit


def safe_count_by_exchange(view, mask, order):
    """Order-safe bases inside `mask`, one base and one external element at
    a time: the bases are the rank-many subsets of full rank, and a base is
    safe unless some external e inside the mask is the order's minimum of
    its circuit."""
    n = view.full_rank
    count = 0
    for elems in combinations(mask_elements(mask), n):
        base = sum(1 << e for e in elems)
        if view.rank_of(base) != n:
            continue
        count += all(order_min(order, circuit_by_rank(view, base, e)) != e
                     for e in mask_elements(mask & ~base))
    return count


def order_min(order, mask):
    """The element of mask that comes first in the LinearOrder `order`."""
    return min(mask_elements(mask), key=order.position.__getitem__)


# --------------------------------------------------------------------------
# Q[x]/Phi_k over Fractions (dense coefficient lists, low degree first)
# --------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _poly_divmod(num, den):
    """Exact division of rational polynomials; den must be nonzero."""
    num = [Fraction(c) for c in num]
    den = _poly_trim([Fraction(c) for c in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = _poly_trim(list(num))
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[i + shift] -= factor * c
        _poly_trim(rem)
    return _poly_trim(quot), rem


def _poly_ext_gcd(a, b):
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _poly_trim([Fraction(c) for c in a]), _poly_trim([Fraction(c) for c in b])
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1) if q else [])
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1) if q else [])
    return r0, s0, t0


@lru_cache(maxsize=None)
def fraction_cyclotomic_polynomial(k):
    """Phi_k over Fractions: (x^k - 1) / prod_{d | k, d < k} Phi_d."""
    num = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            num, rem = _poly_divmod(num, list(fraction_cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


class FractionCyclotomic:
    """An element of Q(zeta_k) as phi(k) Fraction coefficients of
    Q[x]/Phi_k: the slow path `Cyclotomic` is compared against.  Equal to
    a Cyclotomic with the same coefficients."""

    def __init__(self, k, coeffs):
        phi = fraction_cyclotomic_polynomial(k)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) >= len(phi):
            _, cs = _poly_divmod(cs, list(phi))
        self.k = k
        self.coeffs = tuple(cs + [Fraction(0)] * (len(phi) - 1 - len(cs)))

    @classmethod
    def of(cls, v, k=None):
        """A Cyclotomic's coefficients, or a rational in Q(zeta_k)."""
        if isinstance(v, Cyclotomic):
            return cls(v.k, v.coeffs)
        return cls(k, [v])

    def _coerce(self, other):
        if isinstance(other, (FractionCyclotomic, Cyclotomic)):
            if other.k != self.k:
                raise FieldMismatchError("cyclotomic orders differ")
            return FractionCyclotomic(self.k, other.coeffs)
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.k, [other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return FractionCyclotomic(self.k, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.k, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return FractionCyclotomic(self.k, _poly_mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = _poly_ext_gcd(list(self.coeffs),
                                list(fraction_cyclotomic_polynomial(self.k)))
        assert len(g) == 1           # Phi_k is irreducible over Q
        return FractionCyclotomic(self.k, [c / g[0] for c in s])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.coeffs == o.coeffs

    def to_complex(self):
        """Horner's rule at zeta_k = exp(2 pi i / k) over the coefficients
        rounded by float(Fraction)."""
        z = complex(math.cos(2 * math.pi / self.k), math.sin(2 * math.pi / self.k))
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        return f"FractionCyclotomic({self.k}, {[str(c) for c in self.coeffs]})"


def integer_inverse(int_rows, scales):
    """`integer_inverses` for one matrix: (N, den) with N a list of integer
    rows and den > 0 an int."""
    n = len(int_rows)
    if any(len(r) != n for r in int_rows) or len(scales) != n:
        raise ValueError("matrix must be square")
    num, den = integer_inverses([int_rows], [scales])
    return num[0].tolist(), int(den[0])


def _field_entries(rows):
    """The rows over Q (Fraction entries) or, when any entry is a
    Cyclotomic, over Q(zeta_k) (FractionCyclotomic entries), and k."""
    k = next((v.k for row in rows for v in row if isinstance(v, Cyclotomic)), None)
    if k is None:
        return [[Fraction(v) for v in row] for row in rows], None
    return [[FractionCyclotomic.of(v, k) for v in row] for row in rows], k


def field_rank(rows):
    """Rank by plain Gaussian elimination with exact division, over Q
    (int or Fraction entries) or Q(zeta_k) (Cyclotomic entries, computed
    as FractionCyclotomic)."""
    m = _field_entries(rows)[0]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / p
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def leibniz_det(rows):
    """Determinant by the Leibniz formula, over Q or Q(zeta_k) as
    `field_rank`."""
    m, k = _field_entries(rows)
    total = FractionCyclotomic(k, []) if k else Fraction(0)
    for perm in permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def fraction_inverse(rows):
    """Inverse of a matrix over Q or Q(zeta_k) by Gauss-Jordan elimination
    with exact division, as Fractions or FractionCyclotomic values;
    ZeroDivisionError when it is singular."""
    n = len(rows)
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_field_entries(rows)[0])]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def empty_strata_by_fractions(view, radii):
    """Masks of the bases of a rational arrangement whose ball strata the
    triangle bound proves empty at these radii: some non-base f with
    h_f = sum_e c_e h_e has sum_e |c_e| R_e <= R_f, decided in Fractions
    with one `fraction_inverse` per base and the radii as exact
    rationals."""
    arr = view.arrangement
    n = arr.ambient_dim
    exact = [Fraction(r) for r in radii]
    empty = set()
    for base in view.bases():
        elems = list(mask_elements(base))
        inv = fraction_inverse([list(arr.normals[e]) for e in elems])
        for f in set(range(arr.size)) - set(elems):
            coords = [sum(Fraction(arr.normals[f][k]) * inv[k][j]
                          for k in range(n)) for j in range(n)]
            if sum(abs(c) * exact[e] for c, e in zip(coords, elems)) <= exact[f]:
                empty.add(base)
    return empty


def _draw_box(arr, rng, count, d, halfwidth):
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


def bottom_outer_radius(shape):
    """Radius of the smallest origin-centred ball containing the bottom of
    an ASAShape."""
    if shape.kind == "sphere":
        return 1.0
    if shape.kind == "cylinder":
        return math.sqrt(1.0 + (shape.length / 2.0) ** 2)
    return 1.0 + shape.length / 2.0


def box_estimate(view, d, weight, n_samples, seed, workers=1, *, shapes=None,
                 g=None, stream_base=0):
    """Box estimate of the integral over configurations x of
    weight(G(x)) * g(x), G(x) the within-radius mask: ball membership, or
    bottom membership of each hyperplane's shape when shapes are given.

    x is uniform in the bounding box of the balls (or of the bottoms' outer
    radii), which holds every configuration whose mask spans, so the
    estimate is unbiased for any weight that vanishes on non-spanning
    masks.
    """
    arr = view.arrangement
    radii = None
    if shapes is not None:
        bits = _mask_bits(arr.size)
        radii = [bottom_outer_radius(s) for s in shapes]
    box = bounding_halfwidth(view, radii=radii)
    vol = (2.0 * box.halfwidth) ** (d * arr.ambient_dim)

    def values(rng, count):
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

    return run_chunked(n_samples, seed, workers, values,
                       stream_base=stream_base)


def mc_sum(estimates, seed: int, workers: int) -> MCEstimate:
    """Sum of independent estimates: means add, variances add."""
    mean = sum(e.mean for e in estimates)
    var = sum(e.stderr ** 2 for e in estimates)
    n = sum(e.n_samples for e in estimates)
    return MCEstimate(mean, math.sqrt(var), n, seed, workers)


def spanning_subsets(view):
    """All subsets of full rank, ascending bitmask order."""
    return map(int, np.flatnonzero(view.nb_table > 0))


def pressure_coefficient_enumerated(view, d: int, n_samples: int, seed: int,
                                    workers: int = 1) -> MCEstimate:
    """The pressure coefficient as the sum over spanning subsets H of each
    subset's coefficient, estimated separately (n_samples each, split over
    the bases inside H, seed + (h_index << 32) for the h_index-th subset)
    by the tube kernel restricted to H.  Exponential in the ground set;
    desk scale only."""
    if d == 0:
        return MCEstimate(float(pressure_exact_d0(view)), 0.0, 0, seed, workers)
    parts = [_region_estimate(view, d, _contains(mask), n_samples,
                              seed + (h_index << 32), workers, within=mask
                              ).scaled(_parity(mask))
             for h_index, mask in enumerate(spanning_subsets(view))]
    return mc_sum(parts, seed, workers)


def gaussian_sphere(dim, rng, count):
    """count uniform points on S^(dim-1): standard normal points over their
    np.linalg.norm."""
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def ball_sides(arr, dim, radii):
    """(draw, outside) of one base's rows for balls: draw(rng, count,
    base_idx) gives R_e * u_e, u_e uniform on the sphere of R^dim
    (`gaussian_sphere`, paired into complex coordinates for cyclotomic
    arrangements), and outside(vals, outside_idx) holds where every
    non-base norm exceeds R_e."""
    radii = np.asarray(radii, dtype=float)

    def draw(rng, count, base_idx):
        u = gaussian_sphere(dim, rng, count * len(base_idx)).reshape(
            count, len(base_idx), dim)
        if not arr.complexified:
            u = u[..., 0::2] + 1j * u[..., 1::2]
        return u * radii[base_idx][None, :, None]

    def outside(vals, outside_idx):
        norms_sq = np.sum((vals * vals.conj()).real, axis=2)
        return np.all(norms_sq > radii[outside_idx][None, :] ** 2, axis=1)

    return draw, outside


def surface_sides(shapes):
    """(draw, outside) of one base's rows for warped surfaces: one
    sample_surface call per base hyperplane, and a non-base value outside
    when it is not in its hyperplane's closed solid body."""
    def draw(rng, count, base_idx):
        return np.stack([shapes[e].sample_surface(rng, count)
                         for e in base_idx], axis=1)

    def outside(vals, outside_idx):
        accepted = np.ones(len(vals), dtype=bool)
        for pos, e in enumerate(outside_idx):
            w_part, y_part = vals[:, pos, :2], vals[:, pos, 2:]
            inside_solid = (shapes[e].bottom_contains(y_part)
                            & (np.sum(w_part * w_part, axis=1)
                               <= shapes[e].warp(y_part) ** 2))
            accepted &= ~inside_solid
        return accepted

    return draw, outside


def per_base_polymer_parts(view, n_samples, seed, draw, outside,
                           base_weight, g=None, workers=1):
    """For each base, base_weight(base) times the mean over that base's
    n_samples // |bases| draws of accepted (times g(x)), as a list of
    estimates in the order of view.bases(): one run_chunked call per base,
    with stream block base_index << 32.  The configuration is solved with
    the base inverse and every non-base functional applied to it."""
    arr = view.arrangement
    bases = list(view.bases())
    per_base = n_samples // len(bases)
    parts = []
    for b_index, base_mask in enumerate(bases):
        inv = view.base_table.inv[b_index]
        base_idx = list(mask_elements(base_mask))
        outside_idx = [e for e in range(arr.size) if not base_mask >> e & 1]
        weight = base_weight(base_mask)

        def values(rng, count, inv=inv, base_idx=base_idx,
                   outside_idx=outside_idx, weight=weight):
            x = inv @ draw(rng, count, base_idx)
            accepted = (outside(arr.coeff[outside_idx] @ x, outside_idx)
                        if outside_idx else np.ones(count, dtype=bool))
            if g is None:
                return accepted * weight
            return accepted * g(x) * weight

        parts.append(run_chunked(per_base, seed, workers, values,
                                 stream_base=b_index << 32))
    return parts


def per_base_polymer_estimate(view, n_samples, seed, draw, outside,
                              base_weight, g=None, workers=1):
    """The sum over bases of `per_base_polymer_parts`."""
    return mc_sum(per_base_polymer_parts(view, n_samples, seed, draw, outside,
                                         base_weight, g, workers),
                  seed, workers)
