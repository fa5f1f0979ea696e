"""Exact scalars over Q and over cyclotomic fields Q(zeta_k), with exact
rank and inverse.

Rationals are ints or `fractions.Fraction`.  A Cyclotomic is stored like a
Fraction: integer coefficients in the power basis of Z[x]/Phi_k(x) over one
positive denominator.  Phi_k is monic, so products reduce modulo Phi_k with
per-k integer tables of x^j mod Phi_k, and the inverse of p is p* / N(p):
p* is the product of p's Galois conjugates other than p (per-k integer
matrices of sigma_j: zeta -> zeta^j) and N(p) = p p* its norm, an integer
for integral p (Cohen, GTM 138, section 4.3).

Ranks and inverses run on ring rows (`_ring_rows`): each row times the
least positive integer that makes it integral, over Z or Z[zeta_k].

A rank is the length of an echelon form built one row at a time
(`_echelon`): each row is reduced against the echelon rows so far
(`_extend_echelon`), with no division but the residue's integer content,
and joins them unless it is in their span.  The base search keeps the
echelon rows of its path and extends them by one row per rank call.

Inverses come from fraction-free Gauss-Jordan elimination (Bareiss,
Math. Comp. 22, 1968) on a batch of matrices at once, as numpy arrays:
int64 where a Hadamard bound proves that exact, Python ints or Cyclotomic
values in object arrays otherwise.  Each step divides exactly by the
previous pivots p: integers by floor division, elements of Z[zeta_k] by a
multiplication with p* and a floor division of the coefficients by N(p).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np


class FieldMismatchError(TypeError):
    """Entries from different fields (or different cyclotomic orders) mixed."""


class SingularSystemError(ValueError):
    """Square matrix is singular over its field."""


# --------------------------------------------------------------------------
# cyclotomic scalars on integers
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Integer coefficients of Phi_k (low degree first): x^k - 1 divided
    by the monic Phi_d of every proper divisor d of k."""
    if k < 1:
        raise ValueError("cyclotomic order must be >= 1")
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            den = cyclotomic_polynomial(d)
            quot = [0] * (len(num) - len(den) + 1)
            for shift in reversed(range(len(quot))):
                c = quot[shift] = num[shift + len(den) - 1]
                for i, a in enumerate(den):
                    num[shift + i] -= c * a
            assert not any(num)
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _tables(k: int):
    """phi(k); x^j mod Phi_k for 0 <= j < k (x^k = 1 modulo Phi_k, so every
    exponent folds modulo k); the reductions of x^phi, ..., x^(2 phi - 2),
    the high terms of a product; and for each j coprime to k other than 1
    the integer matrix of sigma_j, row i the image zeta^(i j) of zeta^i."""
    poly = cyclotomic_polynomial(k)
    phi = len(poly) - 1
    powers, power = [], [1] + [0] * (phi - 1)
    for _ in range(k):
        powers.append(tuple(power))
        top, power = power[-1], [0] + power[:-1]
        power = [c - top * a for c, a in zip(power, poly)]
    high = tuple(powers[j % k] for j in range(phi, 2 * phi - 1))
    galois = tuple(tuple(powers[i * j % k] for i in range(phi))
                   for j in range(2, k) if math.gcd(j, k) == 1)
    return phi, tuple(powers), high, galois


def _combine(vectors, coeffs, out):
    """out + sum of c * v over (v, c), integer vectors."""
    for v, c in zip(vectors, coeffs):
        if c:
            out = [o + c * a for o, a in zip(out, v)]
    return out


def _mul(k, a, b):
    """Product of two integer coefficient vectors of Z[x]/Phi_k."""
    phi, _, high, _ = _tables(k)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _combine(high, conv[phi:], conv[:phi])


def _conjugate_product(p):
    """(p*, N(p)) of the integral Cyclotomic p (its numerator, in general):
    p* the product of p's images under the Galois maps sigma_j other than
    the identity, an integral Cyclotomic, and the integer N(p) = p p*."""
    phi, _, _, galois = _tables(p.k)
    star = [1] + [0] * (phi - 1)
    for images in galois:
        star = _mul(p.k, star, _combine(images, p.num, [0] * phi))
    norm = _mul(p.k, p.num, star)
    assert not any(norm[1:])
    return _make(p.k, star), norm[0]


def _make(k, num, den=1):
    """The Cyclotomic num / den in lowest terms with den > 0, for integer
    coefficients num (phi(k) of them) and a nonzero integer den."""
    if den != 1:
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    x = object.__new__(Cyclotomic)
    x.k, x.num, x.den = k, tuple(num), den
    return x


class Cyclotomic:
    """An element of Q(zeta_k): integer coefficients `num` in the power basis
    of Z[x]/Phi_k(x) over a positive `den`, in lowest terms (equal elements
    have equal (num, den)), built from any number of int or Fraction ones."""

    __slots__ = ("k", "num", "den")

    def __init__(self, k: int, coeffs):
        phi, powers, _, _ = _tables(k)
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"Cyclotomic coefficients must be int or "
                                f"Fraction, got {c!r} ({type(c).__name__})")
        den = math.lcm(*(c.denominator for c in coeffs))
        num = _combine((powers[j % k] for j in range(len(coeffs))),
                       [c.numerator * (den // c.denominator) for c in coeffs],
                       [0] * phi)
        x = _make(k, num, den)
        self.k, self.num, self.den = k, x.num, x.den

    @classmethod
    def zeta(cls, k: int, power: int = 1) -> "Cyclotomic":
        return _make(k, _tables(k)[1][power % k])

    @classmethod
    def from_rational(cls, k: int, value) -> "Cyclotomic":
        return cls(k, [value])

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients in the power basis."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def numerator(self) -> "Cyclotomic":
        """self * denominator, an element of Z[zeta_k]."""
        return _make(self.k, self.num)

    @property
    def denominator(self) -> int:
        return self.den

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.k != self.k:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.k} vs {other.k}")
            return other
        if isinstance(other, (int, Fraction)):
            return _make(self.k, [other.numerator] + [0] * (len(self.num) - 1),
                         other.denominator)
        return None

    def _sum(self, other, sign):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.k, [a * o.den + sign * b * self.den
                              for a, b in zip(self.num, o.num)],
                     self.den * o.den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self.k, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):      # no reduction mod Phi_k
            return _make(self.k, [a * other.numerator for a in self.num],
                         self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.k, _mul(self.k, self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """Each coefficient of an integral element floor-divided by an int."""
        if not isinstance(other, int) or self.den != 1:
            return NotImplemented
        return _make(self.k, [a // other for a in self.num])

    def inverse(self) -> "Cyclotomic":
        """den p* / N(p), for p = self * den in Z[zeta_k]."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        star, norm = _conjugate_product(self)
        return _make(self.k, [c * self.den for c in star.num], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic) and not any(self.num[1:] + other.num[1:]):
            other = Fraction(other.num[0], other.den)   # a rational, any order
        o = self._coerce(other)
        return NotImplemented if o is None else (self.num, self.den) == (o.num, o.den)

    def __hash__(self):
        # an element with a rational value hashes like that rational
        return hash((self.k, self.num, self.den) if any(self.num[1:])
                    else Fraction(self.num[0], self.den))

    def to_complex(self) -> complex:
        z = complex(math.cos(2 * math.pi / self.k), math.sin(2 * math.pi / self.k))
        acc = 0j
        for n in reversed(self.num):
            acc = acc * z + complex(n / self.den)    # rounds like float(Fraction)
        return acc

    def __repr__(self):
        return f"Cyclotomic(k={self.k}, {list(map(str, self.coeffs))})"


def field_of(values):
    """Return ("rational", None) or ("cyclotomic", k) for a flat iterable of
    entries; raises FieldMismatchError on mixed cyclotomic orders."""
    k = None
    for v in values:
        if isinstance(v, Cyclotomic):
            if k is None:
                k = v.k
            elif v.k != k:
                raise FieldMismatchError(f"cyclotomic orders differ: {k} vs {v.k}")
        elif not isinstance(v, (int, Fraction)):
            raise FieldMismatchError(f"unsupported scalar type {type(v).__name__}")
    return ("rational", None) if k is None else ("cyclotomic", k)


# --------------------------------------------------------------------------
# fraction-free elimination over Z and Q(zeta_k)
# --------------------------------------------------------------------------

def _ring_rows(rows):
    """The rows the rank and inverse loops run on, and each row's scale.

    Each row is multiplied by the lcm of its entries' denominators, the
    least positive integer that makes it integral: rational rows become
    integer rows, and cyclotomic rows (rational entries lifted to
    Cyclotomic) vectors over Z[zeta_k], Cyclotomic values of denominator 1.
    A row scaling keeps the rank, and the inverses undo it.
    """
    kind, k = field_of(v for r in rows for v in r)
    if kind == "cyclotomic":
        rows = [[v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(k, v)
                 for v in r] for r in rows]
    scales = [math.lcm(*(v.denominator for v in r)) for r in rows]
    return [[v.numerator * (s // v.denominator) for v in r]
            for r, s in zip(rows, scales)], scales


def _quotient_by(pivots):
    """(f, y) with f(x, y) = x / pivots exactly, for a step's entries x and
    an array of the previous pivots, one per matrix of a batch: floor
    division by integer pivots; for p in Z[zeta_k], y = (p*, N(p)),
    computed once per step, and x times p* floor-divided by N(p)."""
    if isinstance(pivots.flat[0], Cyclotomic):
        return (lambda x, y: x * y[0] // y[1],
                np.frompyfunc(_conjugate_product, 1, 2)(pivots))
    return operator.floordiv, pivots


def _extend_echelon(echelon, row):
    """Reduce the ring row `row` against `echelon`, a tuple of (pivot
    column, ring row) pairs in which each earlier pivot column is zero in
    every later row: one step v = p v - v[c] r per pair whose column is
    nonzero in v, in order, so no division.  Returns None when the residue
    is zero (the row is in the span, as every row is once the echelon has
    a pivot in each column), else the residue's pair: its first nonzero
    column and the residue divided by its integer content, which keeps a
    rational residue the primitive integer vector on its line, so its
    entries are bounded by the minors of the rows it came from."""
    if len(echelon) == len(row):
        return None
    v = row
    for c, r in echelon:
        f = v[c]
        if f:
            p = r[c]
            v = [p * a - f * b for a, b in zip(v, r)]
    c = next((i for i, a in enumerate(v) if a), None)
    if c is None:
        return None
    if isinstance(v[c], Cyclotomic):
        g = math.gcd(*(n for a in v for n in a.num))
    else:
        g = math.gcd(*v)
    return c, v if g == 1 else [a // g for a in v]


def _echelon(rows):
    """Echelon rows of the ring rows `rows`: each row in turn extends the
    echelon (`_extend_echelon`) unless it is in the span of those before."""
    echelon = ()
    for row in rows:
        residue = _extend_echelon(echelon, row)
        if residue is not None:
            echelon += (residue,)
    return echelon


def exact_rank(rows) -> int:
    """Exact rank of a list of rows over the rows' common field; 0 for empty."""
    rows = [tuple(r) for r in rows]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged matrix")
    return len(_echelon(_ring_rows(rows)[0]))


def is_independent(vectors) -> bool:
    """True iff the vectors are linearly independent; the empty list is independent."""
    vectors = list(vectors)
    return not vectors or exact_rank(vectors) == len(vectors)


def _fraction_free_inverses(mats):
    """Fraction-free Gauss-Jordan elimination of [m | I] for each
    nonsingular square matrix m of a (count, n, n) batch of ring entries:
    int64, or Python ints and Cyclotomic values in an object array.  Every
    division is exact (each entry stays a minor of the augmented matrix),
    and the left block ends as p * I, so the right block is p * m^-1.
    Returns (right blocks, p), p = +-det(m) per matrix.  Each matrix takes
    the first nonzero entry at or below the diagonal as its pivot, and the
    left block's cleared columns are never read again, so each step updates
    only the columns right of its pivot.  Raises SingularSystemError when
    any matrix of the batch is singular."""
    count, n = mats.shape[:2]
    # aug[r] holds row r of every matrix of the batch
    eye = np.broadcast_to(np.eye(n, dtype=mats.dtype)[:, None, :],
                          (n, count, n))
    aug = np.concatenate([mats.transpose(1, 0, 2), eye], axis=2)
    p = np.ones(count, dtype=mats.dtype)
    for col in range(n):
        nonzero = aug[col:, :, col] != 0
        if not nonzero.any(axis=0).all():
            raise SingularSystemError("matrix is singular over its field")
        piv = col + nonzero.argmax(axis=0)
        swap = np.flatnonzero(piv != col)
        rows = piv[swap]
        aug[col, swap], aug[rows, swap] = aug[rows, swap], aug[col, swap]
        if col:                          # the first step divides by 1
            divide, by = _quotient_by(p[:, None])
        p = aug[col, :, col].copy()
        others = np.r_[:col, col + 1:n]
        new = (p[:, None] * aug[others, :, col + 1:]
               - aug[others, :, col, None] * aug[col, :, col + 1:])
        if col:
            new = divide(new, by)
        aug[others, :, col + 1:] = new
    return aug[:, :, n:].transpose(1, 0, 2), p


def _fits_int64(mats, scales) -> bool:
    """True when `integer_inverses` may run on the int64 arrays it is given:
    every entry of the elimination is a minor of [m | I], so by Hadamard's
    inequality at most M = prod over rows of sqrt(|a_i|^2 + 1) in absolute
    value, and each step's p * a - f * b at most 2 M^2 < 2^63.  The
    numerators, scaled by the row scales, and their rows' absolute sums stay
    below n M max(scale) < 2^53, so they and the denominators convert to
    float exactly, and a float division rounds like Python's int / int.
    log2 M^2 is summed in floats, whose error is far below the one bit of
    margin left under both limits."""
    if mats.size == 0:
        return True
    entries = mats.astype(float)
    bits = np.log2(np.sum(entries * entries, axis=2) + 1).sum(axis=1).max()
    widest = float(scales.max())
    return bits < 61 and bits + 2 * math.log2(mats.shape[1] * widest) < 105


def integer_inverses(int_rows, scales):
    """Exact inverses of a batch of nonsingular rational matrices A, row i
    of each given as int_rows[i] / scales[i] (`_ring_rows`), as (N, den):
    integer arrays of shapes (count, n, n) and (count,), den > 0, with
    A^-1 = N / den = (S A)^-1 S, S A inverted by one batched fraction-free
    elimination.  The arrays are int64 when a Hadamard bound proves that
    exact (`_fits_int64`), Python ints in object arrays otherwise."""
    mats = np.array(int_rows, dtype=object)
    scales = np.array(scales, dtype=object)
    count = len(mats)
    n = mats.shape[1] if mats.ndim > 1 else 0
    mats = mats.reshape(count, n, n)
    scales = scales.reshape(count, n)
    try:
        small = mats.astype(np.int64), scales.astype(np.int64)
    except OverflowError:
        small = None
    if small is not None and _fits_int64(*small):
        mats, scales = small
    adj, den = _fraction_free_inverses(mats)
    sign = np.where(den < 0, -1, 1)
    return sign[:, None, None] * adj * scales[:, None, :], sign * den


def cyclotomic_inverses(rows, scales):
    """Exact inverses of a batch of nonsingular matrices A over Q(zeta_k),
    row i of each given as rows[i] / scales[i] (`_ring_rows`), and +-det A:
    A^-1 = (S A)^-1 S, the adjugate of S A from one batched fraction-free
    elimination times p^-1 = p* / N(p), p = +-det S A its last pivot."""
    scales = np.asarray(scales, dtype=object)
    adj, det = _fraction_free_inverses(np.asarray(rows, dtype=object))
    inv = np.array([p.inverse() for p in det], dtype=object)
    return (adj * scales[:, None, :] * inv[:, None, None],
            det / scales.prod(axis=1))


def exact_inverse(rows):
    """Exact inverse of a square matrix over Q or Q(zeta_k).

    Returns a list of lists in the same field.  Both fields go through
    fraction-free Gauss-Jordan elimination of their ring rows, as a batch
    of one: `integer_inverses` for rational matrices, `cyclotomic_inverses`
    for cyclotomic ones.  Raises SingularSystemError if the matrix is
    singular.
    """
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    ring, scales = _ring_rows(rows)
    if ring and isinstance(ring[0][0], Cyclotomic):
        return cyclotomic_inverses([ring], [scales])[0][0].tolist()
    num, den = integer_inverses([ring], [scales])
    return [[Fraction(v, int(den[0])) for v in row] for row in num[0].tolist()]
