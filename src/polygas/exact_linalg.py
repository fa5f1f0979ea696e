"""Exact scalars over Q and over cyclotomic fields Q(zeta_k), with exact
rank / inverse, and a guarded floating-point solve.

All matroid-level questions (independence, rank, inverses) are answered
exactly: rationals use `fractions.Fraction` or integers, cyclotomic numbers
are vectors of rationals in the power basis of Q[x]/Phi_k(x).  `solve_float`
is a guarded float solve for callers; it refuses ill-conditioned systems
instead of returning garbage, and no library path uses it.

Integer rank computations take a fast path over GF(p) with p = 2^31 - 1;
a Hadamard bound guarantees the modular rank equals the rational rank, and
a fraction-free (Bareiss) elimination is kept as the general fallback.
Rational inverses come from fraction-free Gauss-Jordan elimination on the
integerized rows (`integer_inverse`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class FieldMismatchError(TypeError):
    """Entries from different fields (or different cyclotomic orders) mixed."""


class SingularSystemError(ValueError):
    """Square system is singular or too ill-conditioned to solve reliably."""


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
# exact rank
# --------------------------------------------------------------------------

_P = (1 << 31) - 1  # Mersenne prime; (P-1)^2 fits in int64


def _rank_mod_p(mat: np.ndarray) -> int:
    m = (mat % _P).astype(np.int64)
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if m[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), _P - 2, _P)
        m[rank, col:] = (m[rank, col:] * inv) % _P
        if rank + 1 < rows:
            f = m[rank + 1:, col:col + 1]
            m[rank + 1:, col:] = (m[rank + 1:, col:] - f * m[rank, col:]) % _P
        rank += 1
        if rank == rows:
            break
    return rank


def _rank_bareiss(rows) -> int:
    """Fraction-free elimination on integer rows; exact for any magnitudes."""
    m = [list(map(int, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (m[r][c] * p - f * m[rank][c]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_field(rows) -> int:
    """Plain Gaussian elimination with exact division; works over any field."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            if m[r][col]:
                f = m[r][col] / p
                for c in range(col, ncols):
                    m[r][c] = m[r][c] - f * m[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


def _row_scale(row) -> int:
    """The lcm of a rational row's denominators: the least positive integer
    that makes the row integral."""
    return math.lcm(*(Fraction(v).denominator for v in row)) if row else 1


def _integerize(rows):
    """Scale each rational row by the lcm of denominators (rank-preserving)."""
    out = []
    for row in rows:
        scale = _row_scale(row)
        out.append([int(Fraction(v) * scale) for v in row])
    return out


def exact_rank(rows) -> int:
    """Exact rank of a list of rows over the rows' common field; 0 for empty."""
    rows = [tuple(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("ragged matrix")
    kind, _ = field_of(v for r in rows for v in r)
    if kind == "cyclotomic":
        k = next(v.k for r in rows for v in r if isinstance(v, Cyclotomic))
        lifted = [[v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(k, v)
                   for v in r] for r in rows]
        return _rank_field(lifted)
    ints = _integerize(rows)
    # Hadamard: |minor|^2 <= prod of row square-sums, for any row subset
    bound_sq = 1
    for r in ints:
        s = sum(v * v for v in r)
        bound_sq *= max(1, s)
    if bound_sq < _P * _P:
        return _rank_mod_p(np.array(ints, dtype=np.int64))
    return _rank_bareiss(ints)


def is_independent(vectors) -> bool:
    """True iff the vectors are linearly independent; the empty list is independent."""
    vectors = list(vectors)
    if not vectors:
        return True
    return exact_rank(vectors) == len(vectors)


# --------------------------------------------------------------------------
# exact inverse
# --------------------------------------------------------------------------

def _fraction_free_inverse(m):
    """Fraction-free Gauss-Jordan elimination of [m | I] for a nonsingular
    integer matrix.  Every division is exact (each entry stays a minor of the
    augmented matrix), and the left block ends as p * I, so the right block
    is p * m^-1.  Returns (right block, p) as Python ints, p = +-det(m)."""
    n = len(m)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)]
           for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SingularSystemError("matrix is singular over its field")
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(n):
            if r == col:
                continue
            row = aug[r]
            f = row[col]
            aug[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
    return [row[n:] for row in aug], prev


def integer_inverse(int_rows, scales):
    """Exact inverse of the nonsingular rational matrix A whose row i is
    int_rows[i] / scales[i], as (N, den): integer rows N and an integer
    den > 0 with A^-1 = N / den.

    int_rows (= S A with S = diag(scales)) is inverted by fraction-free
    elimination, and the row scaling is undone on the columns of the
    inverse: A^-1 = (S A)^-1 S.  `_integerize` and `_row_scale` give the
    two arguments for rational rows.
    """
    n = len(int_rows)
    if any(len(r) != n for r in int_rows) or len(scales) != n:
        raise ValueError("matrix must be square")
    adj, den = _fraction_free_inverse(int_rows)
    sign = -1 if den < 0 else 1
    num = [[sign * v * s for v, s in zip(row, scales)] for row in adj]
    return num, sign * den


def exact_inverse(rows):
    """Exact inverse of a square matrix over Q or Q(zeta_k).

    Returns a list of lists in the same field.  Rational matrices go through
    fraction-free integer elimination (`integer_inverse`), cyclotomic ones
    through Gauss-Jordan over Q(zeta_k).  Raises SingularSystemError if the
    matrix is singular.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    kind, k = field_of(v for r in rows for v in r)
    if kind == "rational":
        num, den = integer_inverse(_integerize(rows),
                                   [_row_scale(r) for r in rows])
        return [[Fraction(v, den) for v in row] for row in num]
    one = Cyclotomic.from_rational(k, 1)
    zero = Cyclotomic.from_rational(k, 0)
    rows = [[v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(k, v)
             for v in r] for r in rows]
    aug = [rows[i] + [one if j == i else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularSystemError("matrix is singular over its field")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def scalar_abs(value) -> float:
    """Absolute value / complex modulus of an exact scalar, as a float."""
    if isinstance(value, Cyclotomic):
        return abs(value.to_complex())
    return abs(float(Fraction(value)))


# --------------------------------------------------------------------------
# guarded float solve
# --------------------------------------------------------------------------

_COND_LIMIT = 1e12
_RESIDUAL_REL = 1e-9


def solve_float(basis, rhs):
    """Solve the square system basis @ x = rhs in floating point.

    Refuses matrices with condition estimate above 1e12.  The returned
    solution satisfies ||A x - rhs||_inf <= 1e-9 * ||rhs||_inf.
    """
    a = np.asarray(basis, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("basis must be square")
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs length does not match basis")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(f"condition estimate {cond:.3e} exceeds 1e12")
    x = np.linalg.solve(a, b)
    residual = np.max(np.abs(a @ x - b))
    scale = max(np.max(np.abs(b)), 1e-300)
    if residual > _RESIDUAL_REL * scale:
        raise SingularSystemError(
            f"residual {residual:.3e} exceeds {_RESIDUAL_REL} * ||rhs||")
    return x
