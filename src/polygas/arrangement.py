"""Central essential hyperplane arrangements with per-hyperplane radii.

An arrangement is a list of exact linear functionals h_e(x) = sum_i a_i x_i
on K^n (K = Q or Q(zeta_k)) together with a positive radius R_e for each
hyperplane.  Constructors for the named families live here, along with
evaluation of the functionals at floating-point configurations and the
classification of a configuration into its "within radius" subset.

Ground subsets are bitmasks: bit e set means hyperplane e (in construction
order) is in the subset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .exact_linalg import Cyclotomic, exact_rank, field_of
from .signed_graphs import _dn_edges


# int64 bitmasks: bit 63 is the sign bit
MAX_MASK_BITS = 63


class ArrangementError(ValueError):
    """Construction failed (typically: the normals do not span the space)."""


def _checked_radii(radii, size: int) -> tuple:
    """The radii as floats, refused unless there is exactly one positive,
    finite radius per hyperplane."""
    radii = tuple(float(r) for r in radii)
    if len(radii) != size or not all(0.0 < r < math.inf for r in radii):
        raise ArrangementError(
            f"need one positive finite radius per hyperplane ({size}), "
            f"got {list(radii)}")
    return radii


def _mask_bits(size: int) -> np.ndarray:
    """The int64 bit of each hyperplane, for packing membership rows into
    masks: at most MAX_MASK_BITS hyperplanes."""
    if size > MAX_MASK_BITS:
        raise ArrangementError(
            f"{size} hyperplanes do not fit an int64 bitmask "
            f"(at most {MAX_MASK_BITS})")
    return 1 << np.arange(size, dtype=np.int64)


def _norms_sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis (real and imaginary parts
    of complex entries), the squares added column by column: numpy's
    reduction over a trailing axis of a few entries is ~4x slower.  For real
    x with fewer than 8 columns this equals np.linalg.norm(x, axis=-1) ** 2
    bit for bit, since numpy then adds in order too.  No columns give 0."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    columns = [part[..., i] for part in parts for i in range(part.shape[-1])]
    if not columns:
        return np.zeros(x.shape[:-1])
    total = np.square(columns[0])
    for column in columns[1:]:
        total += np.square(column)
    return total


@dataclass(frozen=True, eq=False)
class Arrangement:
    """Immutable central essential arrangement.

    normals are exact row vectors of length ambient_dim; the float (or
    complex) coefficient matrix used by the Monte Carlo paths is cached at
    construction and marked read-only.
    """

    ambient_dim: int
    field_kind: str                 # "rational" | "cyclotomic"
    cyclotomic_order: int | None
    labels: tuple
    normals: tuple                  # tuple of tuples of exact scalars
    radii: tuple                    # positive floats
    family: str
    family_params: tuple            # ((key, value), ...) for the descriptor
    coeff: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.coeff is None:
            if self.field_kind == "cyclotomic":
                mat = np.array([[v.to_complex() if isinstance(v, Cyclotomic)
                                 else complex(Fraction(v)) for v in row]
                                for row in self.normals], dtype=complex)
            else:
                mat = np.array([[float(Fraction(v)) for v in row]
                                for row in self.normals], dtype=float)
            mat.flags.writeable = False
            object.__setattr__(self, "coeff", mat)

    @property
    def complexified(self) -> bool:
        return self.field_kind == "rational"

    @property
    def size(self) -> int:
        return len(self.normals)

    @property
    def ground_mask(self) -> int:
        return (1 << self.size) - 1

    def with_radii(self, radii) -> "Arrangement":
        return Arrangement(self.ambient_dim, self.field_kind, self.cyclotomic_order,
                           self.labels, self.normals,
                           _checked_radii(radii, self.size),
                           self.family, self.family_params, self.coeff)

    # -- evaluation ---------------------------------------------------------

    def values(self, xbatch: np.ndarray) -> np.ndarray:
        """All functional values for a batch of configurations.

        xbatch: (m, n, dim) real for complexified arrangements, complex for
        cyclotomic ones.  Returns (m, size, dim), a strided view of one
        (m * dim, n) @ (n, size) product: a single GEMM instead of one
        small product per configuration.
        """
        m, n, dim = xbatch.shape
        flat = xbatch.transpose(0, 2, 1).reshape(m * dim, n) @ self.coeff.T
        return flat.reshape(m, dim, self.size).transpose(0, 2, 1)

    def gamma_masks(self, xbatch: np.ndarray) -> np.ndarray:
        """Bitmask of {e : ||h_e(x)|| <= R_e} per configuration (ties count as
        inside), as int64: at most MAX_MASK_BITS hyperplanes."""
        bits = _mask_bits(self.size)
        within = _norms_sq(self.values(xbatch)) <= np.asarray(self.radii) ** 2
        return within @ bits

    # -- serialization ------------------------------------------------------

    def to_descriptor(self) -> dict:
        d = {"family": self.family}
        d.update(dict(self.family_params))
        d["radii"] = list(self.radii)
        return d

    def __repr__(self):
        return (f"Arrangement({self.family}, n={self.ambient_dim}, "
                f"hyperplanes={self.size}, field={self.field_kind})")


def _build(normals, labels, radii, family, params) -> Arrangement:
    normals = tuple(tuple(row) for row in normals)
    if not normals:
        raise ArrangementError("arrangement needs at least one hyperplane")
    n = len(normals[0])
    for row in normals:
        if len(row) != n:
            raise ArrangementError("normals have inconsistent length")
        if not any(row):
            raise ArrangementError("zero normal vector")
    kind, korder = field_of(v for row in normals for v in row)
    rank = exact_rank(normals)
    if rank != n:
        raise ArrangementError(
            f"{family}: not essential, normals have rank {rank} < {n}")
    if radii is None:
        radii = (1.0,) * len(normals)
    return Arrangement(n, kind, korder, tuple(labels), normals,
                       _checked_radii(radii, len(normals)),
                       family, tuple(params))


# --------------------------------------------------------------------------
# named families
# --------------------------------------------------------------------------

def _pair_rows(n: int, pairs) -> tuple:
    """The normals and labels of the functionals x_i - sign * x_j on R^n, one
    per (i, j, sign) with 0 <= i < j <= n (0-based): j = n is the gauge
    point, whose coordinate is fixed to 0."""
    normals, labels = [], []
    for i, j, sign in pairs:
        row = [0] * n
        row[i] = 1
        if j < n:
            row[j] = -sign
        normals.append(row)
        labels.append(f"x{i+1}{'-' if sign == 1 else '+'}x{j+1}")
    return normals, labels


def braid(m: int, radii=None) -> Arrangement:
    """Pair-difference functionals x_i - x_j (i < j <= m) in the gauge x_m = 0,
    an essential rank-(m-1) arrangement on R^(m-1)."""
    if m < 2:
        raise ArrangementError("braid needs m >= 2")
    normals, labels = _pair_rows(m - 1, ((i, j, 1) for i, j
                                         in combinations(range(m), 2)))
    return _build(normals, labels, radii, "braid", (("n", m),))


def coxeter_d(n: int, radii=None) -> Arrangement:
    """x_i - x_j and x_i + x_j for i < j <= n."""
    if n < 2:
        raise ArrangementError("coxeter_d needs n >= 2")
    normals, labels = _pair_rows(n, _dn_edges(n))
    return _build(normals, labels, radii, "coxeter_d", (("n", n),))


def coxeter_b(n: int, radii=None) -> Arrangement:
    """The pair functionals of coxeter_d plus the coordinate hyperplanes x_l = 0."""
    if n < 1:
        raise ArrangementError("coxeter_b needs n >= 1")
    normals, labels = _pair_rows(n, _dn_edges(n))
    for i in range(n):
        row = [0] * n
        row[i] = 1
        normals.append(row)
        labels.append(f"x{i+1}")
    return _build(normals, labels, radii, "coxeter_b", (("n", n),))


def threshold(n: int, radii=None) -> Arrangement:
    """Pair sums x_i + x_j, i < j.  threshold(2) is a single hyperplane in R^2
    and is rejected as non-essential."""
    if n < 2:
        raise ArrangementError("threshold needs n >= 2")
    normals, labels = _pair_rows(n, ((i, j, -1) for i, j
                                     in combinations(range(n), 2)))
    return _build(normals, labels, radii, "threshold", (("n", n),))


def dowling(n: int, k: int, radii=None) -> Arrangement:
    """x_i - zeta^m x_j for i < j and 0 <= m < k, zeta a primitive k-th root
    of unity.  Rational for k = 2 (it reproduces coxeter_d); a genuine
    cyclotomic arrangement for k >= 3."""
    if n < 2:
        raise ArrangementError("dowling needs n >= 2")
    if k < 2:
        raise ArrangementError(
            f"dowling needs k >= 2, got k = {k} (k = 1 gives the normals "
            f"x_i - x_j, of rank {n - 1} < {n}: use braid({n}))")
    if k == 2:
        normals, labels = _pair_rows(n, _dn_edges(n))
        return _build(normals, labels, radii, "dowling", (("n", n), ("k", k)))
    normals, labels = [], []
    for i, j in combinations(range(n), 2):
        for m in range(k):
            row = [Cyclotomic.from_rational(k, int(c == i)) for c in range(n)]
            row[j] = -Cyclotomic.zeta(k, m)
            normals.append(row)
            labels.append(f"x{i+1}-z^{m}*x{j+1}")
    return _build(normals, labels, radii, "dowling", (("n", n), ("k", k)))


def widom_rowlinson(counts, radii=None) -> Arrangement:
    """Inter-colour difference functionals on sum(counts) points, gauge-fixed
    by dropping the last point's coordinate (as for braid)."""
    counts = tuple(int(c) for c in counts)
    if len(counts) < 2 or any(c < 1 for c in counts):
        raise ArrangementError("widom_rowlinson needs >= 2 colour classes, each nonempty")
    colour = [c for c, cnt in enumerate(counts) for _ in range(cnt)]
    normals, labels = _pair_rows(len(colour) - 1, (
        (i, j, 1) for i, j in combinations(range(len(colour)), 2)
        if colour[i] != colour[j]))
    return _build(normals, labels, radii, "widom_rowlinson",
                  (("colors", list(counts)),))


def custom(normals, radii=None) -> Arrangement:
    """Arrangement from explicit rational normals (rows of Fractions/ints)."""
    rows = [tuple(Fraction(v) for v in row) for row in normals]
    labels = tuple(f"h{i}" for i in range(len(rows)))
    return _build(rows, labels, radii, "custom",
                  (("normals", [[str(v) for v in row] for row in rows]),))


_FAMILIES = {
    "braid": lambda d: braid(d["n"], d.get("radii")),
    "coxeter_d": lambda d: coxeter_d(d["n"], d.get("radii")),
    "coxeter_b": lambda d: coxeter_b(d["n"], d.get("radii")),
    "threshold": lambda d: threshold(d["n"], d.get("radii")),
    "dowling": lambda d: dowling(d["n"], d["k"], d.get("radii")),
    "widom_rowlinson": lambda d: widom_rowlinson(d["colors"], d.get("radii")),
    "custom": lambda d: custom([[Fraction(s) for s in row] for row in d["normals"]],
                               d.get("radii")),
}


def from_descriptor(descriptor) -> Arrangement:
    """Build an arrangement from a JSON-style descriptor dict (or JSON text)."""
    if isinstance(descriptor, str):
        descriptor = json.loads(descriptor)
    fam = descriptor.get("family")
    if fam not in _FAMILIES:
        raise ArrangementError(f"unknown family {fam!r}")
    try:
        return _FAMILIES[fam](descriptor)
    except KeyError as exc:
        raise ArrangementError(f"descriptor for {fam!r} missing field {exc}") from exc


def subset_labels(arr: Arrangement, mask: int) -> tuple:
    return tuple(arr.labels[e] for e in range(arr.size) if mask >> e & 1)
