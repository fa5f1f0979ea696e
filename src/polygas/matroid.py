"""The matroid of an arrangement: rank oracle, bases, fundamental circuits,
external activity, and the characteristic polynomial at zero.

Ground subsets are bitmasks over hyperplane indices.  All questions are
answered with exact arithmetic.  Ranks are memoized per subset, and the
cache may be read concurrently (inserts are lock-protected).

A view compiles its arrangement's derived data the first time it is needed
and keeps it:

* the base list, by a backtracking search pruned by rank;
* a spanning table and a chi table over all 2^|E| masks, from subset (zeta)
  transforms of the base indicator: spanning[S] is the OR of the indicator
  over the subsets of S, and chi[S] is the sum over T inside S of
  (-1)^|T| spanning[T], which is chi_S(0) for a spanning S and 0 otherwise
  (Crapo: chi(0) = (-1)^r T(1, 0));
* each base's exact inverse, as float rows and as the rows' absolute sums.

The tables hold 2^|E| entries, so they are refused above MAX_TABLE_SIZE
hyperplanes.  The order-safe base count, computed per mask, stays as an
independent second formula for chi(0); the tests keep subset expansion over
rank calls as the tables' oracle.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement
from .exact_linalg import (_P, _integerize, _rank_mod_p, _row_scale,
                           exact_inverse, exact_rank, integer_inverse,
                           scalar_abs)

# chi and spanning tables index every subset: 2^24 int64 entries are 128 MB
MAX_TABLE_SIZE = 24


class MatroidError(ValueError):
    pass


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def mask_elements(mask: int):
    e = 0
    while mask:
        if mask & 1:
            yield e
        mask >>= 1
        e += 1


class LinearOrder:
    """A total order on the ground set: elements listed smallest first."""

    def __init__(self, elements):
        self.elements = tuple(elements)
        self.position = {e: i for i, e in enumerate(self.elements)}
        if len(self.position) != len(self.elements):
            raise MatroidError("order must be a permutation of the ground set")

    @classmethod
    def default(cls, size: int) -> "LinearOrder":
        return cls(range(size))

    @classmethod
    def shuffled(cls, size: int, rng: random.Random) -> "LinearOrder":
        elems = list(range(size))
        rng.shuffle(elems)
        return cls(elems)

    def min_of(self, mask: int) -> int:
        return min(mask_elements(mask), key=self.position.__getitem__)

    def __repr__(self):
        return f"LinearOrder({list(self.elements)})"


@dataclass(frozen=True)
class BaseInverse:
    """The inverse of a base's normal matrix: float (complex for cyclotomic
    arrangements) rows, and each row's sum of absolute values, rounded once
    from the exact value for rational arrangements."""

    rows: np.ndarray
    row_abs_sums: tuple


def _subset_sums(table: np.ndarray) -> None:
    """In place: table[S] becomes the sum of table[T] over all T inside S
    (their OR for a bool table), one pass per ground element."""
    for e in range(table.size.bit_length() - 1):
        pairs = table.reshape(-1, 2, 1 << e)
        pairs[:, 1, :] += pairs[:, 0, :]


def _subset_parity_signs(size: int) -> np.ndarray:
    """(-1)^|S| for every mask S of a ground set of the given size."""
    signs = np.ones(1, dtype=np.int64)
    for _ in range(size):
        signs = np.concatenate([signs, -signs])
    return signs


class MatroidView:
    """Rank oracle and compiled data for the matroid of an arrangement."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        self.size = arrangement.size
        self.full_rank = arrangement.ambient_dim
        self._rank_cache: dict[int, int] = {0: 0}
        self._safe_cache: dict[tuple, int] = {}
        self._bases: tuple | None = None
        self._base_set: frozenset | None = None
        self._spanning_table: np.ndarray | None = None
        self._chi_table: np.ndarray | None = None
        self._inverses: dict[int, BaseInverse] = {}
        self._lock = threading.RLock()
        # rational arrangements: integerized rows with their scales (for the
        # integer base inverses), and a fast exact-rank path when a Hadamard
        # certificate shows every minor survives reduction mod the prime
        self._int_rows = None
        self._ints = self._scales = None
        if arrangement.field_kind == "rational":
            self._ints = _integerize(arrangement.normals)
            self._scales = [_row_scale(row) for row in arrangement.normals]
            bound_sq = 1
            for row in self._ints:
                bound_sq *= max(1, sum(v * v for v in row))
            if bound_sq < _P * _P:
                self._int_rows = np.array(self._ints, dtype=np.int64)

    @property
    def ground_mask(self) -> int:
        return (1 << self.size) - 1

    def _check_mask(self, mask: int) -> None:
        if mask >> self.size:       # also nonzero for negative masks
            raise MatroidError("subset outside the ground set")

    # -- rank ----------------------------------------------------------------

    def rank_of(self, mask: int) -> int:
        if mask >> self.size:       # inline _check_mask: the hottest call
            raise MatroidError("subset outside the ground set")
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        if self._int_rows is not None:
            r = _rank_mod_p(self._int_rows[list(mask_elements(mask))])
        else:
            r = exact_rank([self.arrangement.normals[e]
                            for e in mask_elements(mask)])
        with self._lock:
            self._rank_cache[mask] = r
        return r

    def is_spanning(self, mask: int) -> bool:
        return self.rank_of(mask) == self.full_rank

    def is_base(self, mask: int) -> bool:
        return (popcount(mask) == self.full_rank
                and self.rank_of(mask) == self.full_rank)

    # -- bases -----------------------------------------------------------------

    def bases(self):
        """All bases, each once, in ascending bitmask order (backtracking
        search pruned by rank, run once per view)."""
        if self._bases is None:
            found = []
            n, size = self.full_rank, self.size

            def extend(start, mask, count):
                if count == n:
                    found.append(mask)
                    return
                for e in range(start, size):
                    if size - e < n - count:
                        break
                    m2 = mask | (1 << e)
                    if self.rank_of(m2) == count + 1:
                        extend(e + 1, m2, count + 1)

            extend(0, 0, 0)
            found.sort()
            self._base_set = frozenset(found)
            self._bases = tuple(found)
        return iter(self._bases)

    def bases_of(self, mask: int):
        """Bases of the sub-arrangement on `mask` (rank must be full), in
        ascending bitmask order."""
        self._check_mask(mask)
        self.bases()
        found = [b for b in self._bases if not b & ~mask]
        if not found:
            raise MatroidError("subset is not spanning")
        return found

    def base_inverse(self, base_mask: int) -> BaseInverse:
        """The exact inverse of a base's normal matrix, computed once per
        base: fraction-free integer elimination for rational arrangements,
        Gauss-Jordan over Q(zeta_k) for cyclotomic ones."""
        inv = self._inverses.get(base_mask)
        if inv is not None:
            return inv
        if not self.is_base(base_mask):
            raise MatroidError("mask is not a base")
        elems = list(mask_elements(base_mask))
        if self._ints is not None:
            num, den = integer_inverse([self._ints[e] for e in elems],
                                       [self._scales[e] for e in elems])
            floats = np.array([[v / den for v in row] for row in num], dtype=float)
            sums = tuple(sum(abs(v) for v in row) / den for row in num)
        else:
            exact = exact_inverse([self.arrangement.normals[e] for e in elems])
            floats = np.array([[v.to_complex() for v in row] for row in exact],
                              dtype=complex)
            sums = tuple(sum(scalar_abs(v) for v in row) for row in exact)
        floats.flags.writeable = False
        inv = BaseInverse(floats, sums)
        with self._lock:
            self._inverses[base_mask] = inv
        return inv

    # -- tables over all subsets -------------------------------------------------

    def _compile_tables(self) -> None:
        with self._lock:
            if self._chi_table is not None:
                return
            if self.size > MAX_TABLE_SIZE:
                raise MatroidError(
                    f"{self.size} hyperplanes: the chi and spanning tables "
                    f"index all 2^{self.size} subsets, and at most "
                    f"{MAX_TABLE_SIZE} hyperplanes are supported")
            spanning = np.zeros(1 << self.size, dtype=bool)
            spanning[list(self.bases())] = True
            _subset_sums(spanning)
            chi = np.where(spanning, _subset_parity_signs(self.size), 0)
            _subset_sums(chi)
            spanning.flags.writeable = False
            chi.flags.writeable = False
            self._spanning_table = spanning
            self._chi_table = chi

    @property
    def spanning_table(self) -> np.ndarray:
        """Read-only bool array: entry S is True iff subset S has full rank."""
        self._compile_tables()
        return self._spanning_table

    @property
    def chi_table(self) -> np.ndarray:
        """Read-only int64 array: entry S is chi_S(0) for a spanning subset S
        and 0 for every other subset."""
        self._compile_tables()
        return self._chi_table

    def spanning_subsets(self):
        """All subsets of full rank, ascending bitmask order."""
        return map(int, np.flatnonzero(self.spanning_table))

    # -- circuits and activity --------------------------------------------------

    def fundamental_circuit(self, base_mask: int, e: int) -> int:
        """The unique circuit of base + e; contains e, and dropping any of its
        elements restores independence."""
        if not self.is_base(base_mask):
            raise MatroidError("first argument is not a base")
        bit = 1 << e
        if base_mask & bit:
            raise MatroidError("element already in the base")
        if e >= self.size:
            raise MatroidError("element outside the ground set")
        # an exchange has rank-many elements: it spans iff it is a base
        if self._base_set is None:
            self.bases()
        circuit = bit
        for b in mask_elements(base_mask):
            swapped = (base_mask & ~(1 << b)) | bit
            if swapped in self._base_set:
                circuit |= 1 << b
        return circuit

    def is_safe(self, base_mask: int, order: LinearOrder, within: int | None = None) -> bool:
        """True iff no external element is minimal (under `order`) in its
        fundamental circuit; externals are taken inside `within` when given."""
        scope = self.ground_mask if within is None else within
        if not self.is_base(base_mask):
            raise MatroidError("first argument is not a base")
        outside = scope & ~base_mask
        for e in mask_elements(outside):
            circ = self.fundamental_circuit(base_mask, e)
            if order.min_of(circ) == e:
                return False
        return True

    # -- characteristic polynomial at 0 ------------------------------------------

    def chi_at_zero(self, mask: int | None = None) -> int:
        """chi(0) of the sub-arrangement on a spanning subset (the whole
        ground set by default), read from the chi table.  Exact integer."""
        if mask is None:
            mask = self.ground_mask
        self._check_mask(mask)
        if not self.spanning_table[mask]:
            raise MatroidError("subset is not spanning")
        return int(self.chi_table[mask])

    def chi_if_spanning(self, mask: int) -> int:
        """chi_at_zero when the subset spans, else 0."""
        self._check_mask(mask)
        return int(self.chi_table[mask])

    def safe_base_count(self, mask: int | None = None,
                        order: LinearOrder | None = None) -> int:
        """Number of order-safe bases of the sub-arrangement; equals
        (-1)^rank * chi_at_zero for every linear order."""
        if mask is None:
            mask = self.ground_mask
        if order is None:
            order = LinearOrder.default(self.size)
        key = (mask, order.elements)
        cached = self._safe_cache.get(key)
        if cached is not None:
            return cached
        count = sum(1 for b in self.bases_of(mask)
                    if self.is_safe(b, order, within=mask))
        with self._lock:
            self._safe_cache[key] = count
        return count

    def safe_count_if_spanning(self, mask: int, order: LinearOrder) -> int:
        if not self.is_spanning(mask):
            return 0
        return self.safe_base_count(mask, order)


def view_of(source) -> MatroidView:
    """`source` itself when it is a MatroidView, else a new view of the
    arrangement `source`: lets one view's compiled data serve every helper
    of a call."""
    return source if isinstance(source, MatroidView) else MatroidView(source)
