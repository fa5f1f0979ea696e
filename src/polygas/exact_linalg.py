"""Exact scalars over Q and over cyclotomic fields Q(zeta_k), with exact
rank and inverse.

All matroid-level questions (independence, rank, inverses) are answered
exactly: rationals use `fractions.Fraction` or integers, cyclotomic numbers
are vectors of rationals in the power basis of Q[x]/Phi_k(x).

Ranks and inverses come from two fraction-free eliminations (Bareiss,
Math. Comp. 22, 1968), one for rank and one Gauss-Jordan for inverses.
They run on ring rows (`_ring_rows`): rational rows scaled to integers, or
rows lifted to Cyclotomic.  Each step divides by the previous pivot, with
floor division on integers and by one multiplication with the pivot's
inverse on Cyclotomic entries; both quotients are exact.  The inverse
elimination runs on a batch of matrices at once, as numpy arrays: int64
where a Hadamard bound proves that exact, Python ints or Cyclotomic values
in object arrays otherwise; a single inverse is a batch of one.
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
# polynomial helpers over Q (dense coefficient lists, low degree first)
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


def _poly_divmod(num, den):
    """Exact division of rational polynomials; den must be nonzero."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    _poly_trim(rem)
    dlead = den[-1]
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / dlead
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[i + shift] -= factor * c
        _poly_trim(rem)
    return _poly_trim(quot), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Coefficients of Phi_k (low degree first), via Phi_k = (x^k - 1) / prod_{d|k, d<k} Phi_d."""
    if k < 1:
        raise ValueError("cyclotomic order must be >= 1")
    num = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


def _poly_ext_gcd(a, b):
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = [Fraction(c) for c in a], [Fraction(c) for c in b]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    _poly_trim(r0), _poly_trim(r1)
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1) if q else [])
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1) if q else [])
    return r0, s0, t0


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


# --------------------------------------------------------------------------
# cyclotomic scalars
# --------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_k), stored as rational coefficients in the power
    basis 1, x, ..., x^(phi(k)-1) of Q[x]/Phi_k(x).

    Arithmetic is exact: (a + b) - b == a holds bit-exactly.
    """

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        phi = len(cyclotomic_polynomial(k)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            _, cs = _poly_divmod(cs, list(cyclotomic_polynomial(k)))
        cs += [Fraction(0)] * (phi - len(cs))
        self.k = k
        self.coeffs = tuple(cs)

    @classmethod
    def zeta(cls, k: int, power: int = 1) -> "Cyclotomic":
        power %= k
        return cls(k, [Fraction(0)] * power + [Fraction(1)])

    @classmethod
    def from_rational(cls, k: int, value) -> "Cyclotomic":
        return cls(k, [Fraction(value)])

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.k != self.k:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.k} vs {other.k}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.k, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.k, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.k, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.k, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):      # no reduction mod Phi_k
            return Cyclotomic(self.k, [c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(o.coeffs)) or [Fraction(0)]
        return Cyclotomic(self.k, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        g, s, _ = _poly_ext_gcd(list(self.coeffs), list(cyclotomic_polynomial(self.k)))
        # Phi_k is irreducible over Q, so gcd is a nonzero constant
        assert len(g) == 1 and g[0] != 0
        inv = [c / g[0] for c in s]
        return Cyclotomic(self.k, inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.k, self.coeffs))

    def to_complex(self) -> complex:
        z = complex(math.cos(2 * math.pi / self.k), math.sin(2 * math.pi / self.k))
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        return f"Cyclotomic(k={self.k}, {list(map(str, self.coeffs))})"


# --------------------------------------------------------------------------
# field detection
# --------------------------------------------------------------------------

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
    if k is None:
        return ("rational", None)
    return ("cyclotomic", k)


# --------------------------------------------------------------------------
# fraction-free elimination over Z and Q(zeta_k)
# --------------------------------------------------------------------------

def _ring_rows(rows):
    """The rows the fraction-free loops run on, and each row's scale.

    Rational rows are multiplied by the lcm of their denominators, the least
    positive integer that makes them integral, and these scales are returned
    as a list; a row scaling keeps the rank, and `integer_inverse` undoes it
    on the inverse.  Rows over Q(zeta_k) are lifted entry by entry to
    Cyclotomic, and the scales are None.
    """
    kind, k = field_of(v for r in rows for v in r)
    if kind == "cyclotomic":
        return [[v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(k, v)
                 for v in r] for r in rows], None
    scales = [math.lcm(*(Fraction(v).denominator for v in r)) if r else 1
              for r in rows]
    return [[int(Fraction(v) * s) for v in r] for r, s in zip(rows, scales)], scales


def _quotient_by(pivot):
    """Division of the next elimination step's entries by `pivot`, as an
    (operator, operand) pair; the quotients are exact.  Integers use floor
    division.  Cyclotomic entries are multiplied by the pivot's inverse,
    computed here once per step instead of once per entry."""
    if isinstance(pivot, Cyclotomic):
        return operator.mul, pivot.inverse()
    return operator.floordiv, pivot


def _fraction_free_rank(rows) -> int:
    """Rank of ring rows by fraction-free (Bareiss) elimination, exact for
    any magnitudes: each entry stays a minor of the rows, so every division
    by the previous pivot is exact.  Each step drops the column it has
    cleared; a column without a pivot is dropped unchanged.  The given rows
    are not modified."""
    m = list(rows)
    rank = 0
    divide, by = operator.mul, 1        # the first step divides by 1
    while m and m[0]:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            m = [row[1:] for row in m]
            continue
        prow = m.pop(piv)
        p, rest = prow[0], prow[1:]
        rank += 1
        m = [[divide(p * a - row[0] * b, by) for a, b in zip(row[1:], rest)]
             for row in m]
        if m and m[0]:
            divide, by = _quotient_by(p)
    return rank


def exact_rank(rows) -> int:
    """Exact rank of a list of rows over the rows' common field; 0 for empty."""
    rows = [tuple(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("ragged matrix")
    return _fraction_free_rank(_ring_rows(rows)[0])


def is_independent(vectors) -> bool:
    """True iff the vectors are linearly independent; the empty list is independent."""
    vectors = list(vectors)
    if not vectors:
        return True
    return exact_rank(vectors) == len(vectors)


def _quotients_by(pivots):
    """`_quotient_by` for a batch of pivots, one per matrix: floor division
    by an integer array, or multiplication by each Cyclotomic pivot's
    inverse."""
    if pivots.dtype == object and isinstance(pivots[0], Cyclotomic):
        return operator.mul, np.array([p.inverse() for p in pivots],
                                      dtype=object)
    return operator.floordiv, pivots


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
            divide, by = _quotients_by(p)
        p = aug[col, :, col].copy()
        others = np.r_[:col, col + 1:n]
        new = (p[:, None] * aug[others, :, col + 1:]
               - aug[others, :, col, None] * aug[col, :, col + 1:])
        if col:
            new = divide(new, by[:, None])
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
    of each given as int_rows[i] / scales[i], as (N, den): integer arrays
    of shapes (count, n, n) and (count,), den > 0, with A^-1 = N / den.

    Each int_rows (= S A with S = diag(scales)) is inverted by one batched
    fraction-free elimination, and the row scaling is undone on the columns
    of the inverse: A^-1 = (S A)^-1 S.  The arrays are int64 when a
    Hadamard bound proves that exact (`_fits_int64`), Python ints in object
    arrays otherwise.  `_ring_rows` gives both arguments for rational rows.
    """
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


def integer_inverse(int_rows, scales):
    """`integer_inverses` for one matrix: (N, den) with N a list of integer
    rows and den > 0 an int."""
    n = len(int_rows)
    if any(len(r) != n for r in int_rows) or len(scales) != n:
        raise ValueError("matrix must be square")
    num, den = integer_inverses([int_rows], [scales])
    return num[0].tolist(), int(den[0])


def cyclotomic_inverses(rows):
    """Exact inverses of a (count, n, n) object batch of nonsingular
    Cyclotomic matrices, and the pivots p = +-det of
    `_fraction_free_inverses`: each adjugate block times the inverse of
    its p."""
    adj, det = _fraction_free_inverses(rows)
    inv = np.array([d.inverse() for d in det], dtype=object)
    return adj * inv[:, None, None], det


def exact_inverse(rows):
    """Exact inverse of a square matrix over Q or Q(zeta_k).

    Returns a list of lists in the same field.  Both fields go through
    fraction-free Gauss-Jordan elimination, as a batch of one: rational
    matrices on their integerized rows (`integer_inverse`), cyclotomic ones
    on their Cyclotomic rows (`cyclotomic_inverses`).  Raises
    SingularSystemError if the matrix is singular.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    ring, scales = _ring_rows(rows)
    if scales is not None:
        num, den = integer_inverse(ring, scales)
        return [[Fraction(v, den) for v in row] for row in num]
    return cyclotomic_inverses(np.array([ring], dtype=object))[0][0].tolist()


def scalar_abs(value) -> float:
    """Absolute value / complex modulus of an exact scalar, as a float."""
    if isinstance(value, Cyclotomic):
        return abs(value.to_complex())
    return abs(float(Fraction(value)))
