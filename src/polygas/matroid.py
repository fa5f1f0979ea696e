"""The matroid of an arrangement: rank oracle, bases, fundamental circuits,
external activity, and the characteristic polynomial at zero.

Ground subsets are bitmasks over hyperplane indices.  All questions are
answered with exact arithmetic: a view scales (rational) or lifts
(cyclotomic) its normals once to the ring rows of `exact_linalg`, and every
rank is one fraction-free elimination on some of them.  Ranks are memoized
per subset, and the cache may be read concurrently (inserts are
lock-protected).

A view compiles its arrangement's derived data the first time it is needed
and keeps it:

* the base list, by a backtracking search pruned by rank;
* an nb table, a spanning table and a chi table over all 2^|E| masks, from
  subset (zeta) transforms of the base indicator: nb[S] is the number of
  bases inside S (the sum of the indicator over the subsets of S), S spans
  exactly when nb[S] > 0, and chi[S] is the sum over T inside S of
  (-1)^|T| spanning[T], which is chi_S(0) for a spanning S and 0 otherwise
  (Crapo: chi(0) = (-1)^r T(1, 0));
* the base table (`base_table`): each base's elements, inverse and |det|
  as floats, from one batched fraction-free elimination over all bases;
  the Monte Carlo kernels and the bounding box read it, exact queries never;
* the base set, which fundamental circuits and order-safety checks read
  both to validate their base argument and to test exchanges.

The tables hold 2^|E| entries, so they are refused above MAX_TABLE_SIZE
hyperplanes.  The order-safe base count, computed per mask, stays as an
independent second formula for chi(0); the tests keep subset expansion over
rank calls as the tables' oracle.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement
from .exact_linalg import (_fraction_free_rank, _ring_rows,
                           cyclotomic_inverses, integer_inverses, scalar_abs)

# the tables index every subset: at 2^24 entries the int64 chi table is
# 128 MB and the int32 nb table 64 MB
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
class BaseTable:
    """Float data of bases, one read-only row per base in the order of
    `MatroidView.bases`; B^-1 (complex for cyclotomic arrangements), |det B|
    (the complex modulus) and the row sums are rounded once from the exact
    values."""

    masks: np.ndarray          # (bases,) int64
    elems: np.ndarray          # (bases, n) the base's elements, ascending
    out: np.ndarray            # (bases, size - n) the other elements
    inv: np.ndarray            # (bases, n, n) B^-1: base values to x
    to_out: np.ndarray         # (bases, size - n, n) S_B = C_out(B) B^-1
    abs_det: np.ndarray        # (bases,) |det B|
    row_abs_sums: np.ndarray   # (bases, n) absolute row sums of B^-1

    def __post_init__(self):
        # C order: the kernels gather rows of the fields on every block
        for name, field in vars(self).items():
            field = np.ascontiguousarray(field)
            field.flags.writeable = False
            object.__setattr__(self, name, field)

    def inside(self, within: int) -> "BaseTable":
        """The rows of the bases inside the mask `within`."""
        rows = (self.masks & ~within) == 0
        return BaseTable(*(field[rows] for field in vars(self).values()))


def _subset_sums(table: np.ndarray) -> None:
    """In place: table[S] becomes the sum of table[T] over all T inside S,
    one pass per ground element."""
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
        self._nb_table: np.ndarray | None = None
        self._spanning_table: np.ndarray | None = None
        self._chi_table: np.ndarray | None = None
        self._base_table: BaseTable | None = None
        self._lock = threading.RLock()
        # the fraction-free loops' rows, and the integerizing row scales
        # (None for cyclotomic arrangements)
        self._rows, self._scales = _ring_rows(arrangement.normals)

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
        r = _fraction_free_rank([self._rows[e] for e in mask_elements(mask)])
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

    @property
    def base_table(self) -> BaseTable:
        """The BaseTable of all bases, compiled once per view by one batched
        fraction-free Gauss-Jordan elimination: on the integerized rows S A
        for rational arrangements (`integer_inverses`, whose denominator is
        |det S A| = |det A| times the product of the row scales), on the
        Cyclotomic rows for cyclotomic ones (`cyclotomic_inverses`: the
        adjugate over the pivot, which is +-det)."""
        with self._lock:
            if self._base_table is None:
                self._base_table = self._compile_base_table()
            return self._base_table

    def _compile_base_table(self) -> BaseTable:
        masks = np.fromiter(self.bases(), dtype=np.int64)
        bits = masks[:, None] >> np.arange(self.size) & 1
        elems = np.nonzero(bits)[1].reshape(masks.size, self.full_rank)
        out = np.nonzero(bits == 0)[1].reshape(masks.size, -1)
        mats = np.array(self._rows, dtype=object)[elems]
        if self._scales is not None:
            scales = np.array(self._scales, dtype=object)[elems]
            num, den = integer_inverses(mats, scales)
            inv = np.ascontiguousarray(num / den[:, None, None], dtype=float)
            sums = np.abs(num).sum(axis=2) / den[:, None]
            abs_det = [d / math.prod(s)
                       for d, s in zip(den.tolist(), scales.tolist())]
        else:
            exact, dets = cyclotomic_inverses(mats)
            inv = np.array([[[v.to_complex() for v in row] for row in m]
                            for m in exact], dtype=complex)
            sums = [[sum(scalar_abs(v) for v in row) for row in m]
                    for m in exact]
            abs_det = [scalar_abs(d) for d in dets]
        return BaseTable(masks, elems, out, inv,
                         self.arrangement.coeff[out] @ inv,
                         np.array(abs_det, dtype=float),
                         np.array(sums, dtype=float))

    # -- tables over all subsets -------------------------------------------------

    def _compile_tables(self) -> None:
        with self._lock:
            if self._chi_table is not None:
                return
            if self.size > MAX_TABLE_SIZE:
                raise MatroidError(
                    f"{self.size} hyperplanes: the nb, chi and spanning tables "
                    f"index all 2^{self.size} subsets, and at most "
                    f"{MAX_TABLE_SIZE} hyperplanes are supported")
            nb = np.zeros(1 << self.size, dtype=np.int32)   # <= C(24, 12) bases
            nb[list(self.bases())] = 1
            _subset_sums(nb)
            spanning = nb > 0
            chi = np.where(spanning, _subset_parity_signs(self.size), 0)
            _subset_sums(chi)
            for table in (nb, spanning, chi):
                table.flags.writeable = False
            self._nb_table = nb
            self._spanning_table = spanning
            self._chi_table = chi

    @property
    def nb_table(self) -> np.ndarray:
        """Read-only int32 array: entry S is the number of bases inside
        subset S."""
        self._compile_tables()
        return self._nb_table

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

    def _check_base(self, base_mask: int) -> None:
        """Raise MatroidError unless the mask is in the compiled base set."""
        if self._base_set is None:
            self.bases()
        if base_mask not in self._base_set:
            raise MatroidError(f"mask {base_mask!r} is not a base")

    def fundamental_circuit(self, base_mask: int, e: int) -> int:
        """The unique circuit of base + e; contains e, and dropping any of its
        elements restores independence."""
        self._check_base(base_mask)
        bit = 1 << e
        if base_mask & bit:
            raise MatroidError("element already in the base")
        if e >= self.size:
            raise MatroidError("element outside the ground set")
        # an exchange has rank-many elements: it spans iff it is a base
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
        self._check_base(base_mask)
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
        (-1)^rank * chi_at_zero for every linear order.  The order must be
        a permutation of the ground set (MatroidError otherwise)."""
        if mask is None:
            mask = self.ground_mask
        if order is None:
            order = LinearOrder.default(self.size)
        key = (mask, order.elements)
        cached = self._safe_cache.get(key)
        if cached is not None:
            return cached
        self._check_order(order)
        count = sum(1 for b in self.bases_of(mask)
                    if self.is_safe(b, order, within=mask))
        with self._lock:
            self._safe_cache[key] = count
        return count

    def safe_count_if_spanning(self, mask: int, order: LinearOrder) -> int:
        if self.is_spanning(mask):
            return self.safe_base_count(mask, order)
        self._check_order(order)
        return 0

    def _check_order(self, order: LinearOrder) -> None:
        """Raise MatroidError unless the order lists exactly the ground set
        (its elements are distinct, and a cached count was made under a
        checked order)."""
        if set(order.elements) != set(range(self.size)):
            raise MatroidError(
                f"order {list(order.elements)} is not a permutation of the "
                f"ground set 0..{self.size - 1}")


def view_of(source) -> MatroidView:
    """`source` itself when it is a MatroidView, else a new view of the
    arrangement `source`: lets one view's compiled data serve every helper
    of a call."""
    return source if isinstance(source, MatroidView) else MatroidView(source)
