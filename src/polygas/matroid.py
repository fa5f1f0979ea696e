"""The matroid of an arrangement: rank oracle, bases, fundamental circuits,
external activity, and the characteristic polynomial at zero.

Ground subsets are bitmasks over hyperplane indices.  All questions are
answered with exact arithmetic: a view scales its normals once to the
integral ring rows of `exact_linalg` (over Z or Z[zeta_k]), and a rank is
the length of an echelon form of some of them, extended one row at a time
(`exact_linalg._extend_echelon`).  Ranks are memoized per subset, and the
cache may be read concurrently (inserts are lock-protected).

A view compiles its arrangement's derived data the first time it is needed
into one store, a dict whose entries are made under the view's lock
(`_compiled`) and kept; each compile returns what it builds:

* the base list (`bases`), one read-only int64 array of ascending masks
  that the base table shares and every base lookup reads, by a
  backtracking search pruned by rank.  The search extends an independent
  set by one element at a time, so it keeps the independent sets on its
  path with their echelon rows, and each rank call reduces the one new row
  against its prefix's rows instead of reducing them all again: braid(6)'s
  3,663 calls take 0.013-0.022 s instead of 0.08-0.14 s.  The memo is
  dropped when the search ends;
* an nb table and a chi table over all 2^|E| masks, from subset (zeta)
  transforms of the base indicator: nb[S] is the number of bases inside S
  (the sum of the indicator over the subsets of S), S spans exactly when
  nb[S] > 0, and chi[S] is the sum over the spanning T inside S of
  (-1)^|T|, which is chi_S(0) for a spanning S and 0 otherwise (Crapo:
  chi(0) = (-1)^r T(1, 0));
* the base table (`base_table`): each base's elements, inverse and |det|
  as floats, from one batched fraction-free elimination over all bases;
  the Monte Carlo kernels and the bounding box read it, exact queries never.
  Rational arrangements keep that elimination's exact inverses beside it,
  for the exact maps S_B of `exact_to_out`;
* the circuit table (`circuit_table`): entry [B, e] is the fundamental
  circuit of base B + e, matched exactly against the sorted base masks
  with no rank call and no 2^|E| table; fundamental circuits, order-safety
  checks and order-safe base counts read it, the latter through one
  vector per order of each base's externals that are minimal in their
  circuits.

The subset tables hold 2^|E| entries, so they are refused above
MAX_TABLE_SIZE hyperplanes; the base list and the circuit table work up to
the 63-bit mask limit.  The order-safe base count stays as an independent
second formula for chi(0); the tests keep subset expansion over rank calls
as the tables' oracle and a per-base exchange loop over rank calls as the
circuits'.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement
from .exact_linalg import (_echelon, _extend_echelon, _ring_rows,
                           cyclotomic_inverses, integer_inverses)

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
        # C order: the kernels read rows of the fields on every block
        for name, field in vars(self).items():
            field = np.ascontiguousarray(field)
            field.flags.writeable = False
            object.__setattr__(self, name, field)

    def inside(self, within: int) -> "BaseTable":
        """The rows of the bases inside the mask `within`."""
        return self.take((self.masks & ~within) == 0)

    def take(self, rows) -> "BaseTable":
        """The given rows (indices or a bool mask over the rows), in order."""
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
        # mask -> rank: no benchmark pass hits it (each runs on a fresh
        # view), but the test suite re-ranks masks on shared views and runs
        # markedly faster with it (ROADMAP, measured trades)
        self._rank_cache: dict[int, int] = {0: 0}
        # while bases() searches: the independent sets on its path -> their
        # echelon rows
        self._echelon: dict[int, tuple] | None = None
        # the compiled data by key, each entry made once (`_compiled`)
        self._store: dict = {}
        self._lock = threading.RLock()
        # the ring rows of the normals, and the integerizing row scales
        self._rows, self._scales = _ring_rows(arrangement.normals)

    def _compiled(self, key, build):
        """The store's entry `key`, made by `build()` at the first request
        under the view's lock, so concurrent readers share one build."""
        with self._lock:
            if key not in self._store:
                self._store[key] = build()
            return self._store[key]

    @property
    def ground_mask(self) -> int:
        return (1 << self.size) - 1

    def _check_mask(self, mask: int) -> None:
        if mask >> self.size:       # also nonzero for negative masks
            raise MatroidError("subset outside the ground set")

    # -- rank ----------------------------------------------------------------

    def rank_of(self, mask: int) -> int:
        """Rank of a subset, memoized: the echelon rows of its prefix (the
        subset without its highest element) extended by the highest
        element's ring row (`_extend_echelon`).  While `bases()` searches,
        the prefix's echelon rows come from the search's memo when it holds
        them, and an independent result joins the memo; otherwise they are
        built from the prefix's rows (`_echelon`)."""
        if mask >> self.size:       # inline _check_mask: the hottest call
            raise MatroidError("subset outside the ground set")
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        memo = self._echelon
        top = mask.bit_length() - 1
        prefix = mask ^ 1 << top
        echelon = None if memo is None else memo.get(prefix)
        if echelon is None:
            memo = None             # the result does not join the memo
            echelon = _echelon([self._rows[e] for e in mask_elements(prefix)])
        residue = _extend_echelon(echelon, self._rows[top])
        r = len(echelon) + (residue is not None)
        with self._lock:
            self._rank_cache[mask] = r
            if memo is not None and residue is not None:
                memo[mask] = echelon + (residue,)
        return r

    def is_spanning(self, mask: int) -> bool:
        return self.rank_of(mask) == self.full_rank

    def is_base(self, mask: int) -> bool:
        return (popcount(mask) == self.full_rank
                and self.rank_of(mask) == self.full_rank)

    # -- bases -----------------------------------------------------------------

    def bases(self):
        """All bases, each once, in ascending bitmask order.  The first call
        runs the search and keeps its result in the store."""
        return iter(self._compiled("bases", self._search_bases).tolist())

    def _base_masks(self) -> np.ndarray:
        """The base list: read-only int64 masks, ascending."""
        if "bases" not in self._store:
            self.bases()            # the search runs where tracers time it
        return self._store["bases"]

    def _search_bases(self) -> np.ndarray:
        """Extend each independent set by every larger element that raises
        its rank.  Each of the search's rank calls extends the independent
        set at the top of its path by one row, so the echelon memo holds
        only that path: an entry is dropped once its subtree is searched,
        and the memo once the search ends."""
        if self.size > 63:
            raise MatroidError(f"{self.size} hyperplanes: base masks are "
                               "int64, at most 63 hyperplanes are supported")
        found = []
        n, size = self.full_rank, self.size
        memo = self._echelon = {0: ()}

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
                    memo.pop(m2, None)

        try:
            extend(0, 0, 0)
        finally:
            self._echelon = None
        masks = np.sort(np.array(found, dtype=np.int64))
        masks.flags.writeable = False
        return masks

    def bases_of(self, mask: int):
        """Bases of the sub-arrangement on `mask` (rank must be full), in
        ascending bitmask order."""
        self._check_mask(mask)
        masks = self._base_masks()
        found = masks[(masks & ~mask) == 0].tolist()
        if not found:
            raise MatroidError("subset is not spanning")
        return found

    @property
    def base_table(self) -> BaseTable:
        """The BaseTable of all bases, compiled once per view by one batched
        fraction-free Gauss-Jordan elimination on the integerized rows S A:
        over Z for rational arrangements (`integer_inverses`, whose
        denominator is |det S A| = |det A| times the product of the row
        scales), over Z[zeta_k] for cyclotomic ones (`cyclotomic_inverses`,
        which divides by the pivot +-det S A and undoes the row scales)."""
        return self._compiled("base_table", self._compile_base_table)[0]

    def _base_elements(self):
        """(elems, out): each base's elements and other elements, ascending,
        in base-list order, from one np.nonzero over the mask bits.
        Read-only and C-ordered, so the base table shares them (np.nonzero's
        columns are strided views of an (entries, 2) array)."""
        def build():
            masks = self._base_masks()
            bits = masks[:, None] >> np.arange(self.size) & 1
            elems = np.ascontiguousarray(
                np.nonzero(bits)[1].reshape(masks.size, self.full_rank))
            out = np.ascontiguousarray(
                np.nonzero(bits == 0)[1].reshape(masks.size, -1))
            for array in (elems, out):
                array.flags.writeable = False
            return elems, out
        return self._compiled("elements", build)

    def _compile_base_table(self) -> tuple:
        """(BaseTable, exact inverses): for rational arrangements the exact
        inverses are (N, den), B^-1 = N / den per table row, and None for
        cyclotomic ones."""
        elems, out = self._base_elements()
        mats = np.array(self._rows, dtype=object)[elems]
        scales = np.array(self._scales, dtype=object)[elems]
        if self.arrangement.field_kind == "rational":
            num, den = exact = integer_inverses(mats, scales)
            inv = np.ascontiguousarray(num / den[:, None, None], dtype=float)
            sums = np.abs(num).sum(axis=2) / den[:, None]
            abs_det = [d / math.prod(s)
                       for d, s in zip(den.tolist(), scales.tolist())]
        else:
            exact = None
            inverses, dets = cyclotomic_inverses(mats, scales)
            inv = np.array([[[v.to_complex() for v in row] for row in m]
                            for m in inverses], dtype=complex)
            sums = [[sum(abs(v) for v in row) for row in m]
                    for m in inv.tolist()]
            abs_det = [abs(d.to_complex()) for d in dets]
        return BaseTable(self._base_masks(), elems, out, inv,
                         self.arrangement.coeff[out] @ inv,
                         np.array(abs_det, dtype=float),
                         np.array(sums, dtype=float)), exact

    def exact_to_out(self, rows) -> tuple:
        """S_B = C_out(B) B^-1 exactly, for the given rows of the base table
        of a rational arrangement, from the exact inverses the table was
        rounded from: (num, den), object arrays of Python ints of shapes
        (rows, size - n, n) and (rows, size - n), den > 0 and
        S_B = num / den.  C_f = ring_f / scale_f and B^-1 = N / d give
        num = ring_out N and den = scale_f d."""
        table, exact = self._compiled("base_table", self._compile_base_table)
        if exact is None:
            raise MatroidError("exact maps S_B are kept for rational "
                               "arrangements only")
        inv_num, inv_den = exact
        ring = np.array(self._rows, dtype=object)
        scales = np.array(self._scales, dtype=object)
        out = table.out[rows]
        return (ring[out] @ inv_num[rows].astype(object),
                scales[out] * inv_den[rows].astype(object)[:, None])

    # -- tables over all subsets -------------------------------------------------

    def _compile_tables(self) -> tuple:
        """(nb, chi); spanning is nb > 0, so it is not kept."""
        if self.size > MAX_TABLE_SIZE:
            raise MatroidError(
                f"{self.size} hyperplanes: the nb and chi tables index all "
                f"2^{self.size} subsets, and at most {MAX_TABLE_SIZE} "
                f"hyperplanes are supported")
        nb = np.zeros(1 << self.size, dtype=np.int32)   # <= C(24, 12) bases
        nb[self._base_masks()] = 1
        _subset_sums(nb)
        chi = np.where(nb > 0, _subset_parity_signs(self.size), 0)
        _subset_sums(chi)
        for table in (nb, chi):
            table.flags.writeable = False
        return nb, chi

    @property
    def nb_table(self) -> np.ndarray:
        """Read-only int32 array: entry S is the number of bases inside
        subset S, so S spans iff it is positive."""
        return self._compiled("tables", self._compile_tables)[0]

    @property
    def chi_table(self) -> np.ndarray:
        """Read-only int64 array: entry S is chi_S(0) for a spanning subset S
        and 0 for every other subset."""
        return self._compiled("tables", self._compile_tables)[1]

    # -- circuits and activity --------------------------------------------------

    @property
    def circuit_table(self) -> np.ndarray:
        """Read-only (bases, size) int64 array in base-list order: entry
        [B, e] is the fundamental circuit of B + e for e outside B, and 0
        for e in B.  Compiled once per view."""
        return self._compiled("circuits", self._compile_circuits)

    def _compile_circuits(self):
        """The circuit of B + e is e plus every b in B whose exchange
        B - b + e is a base: one np.searchsorted of the exchanges against
        the sorted base masks per ground element, matched exactly."""
        masks, (elems, _) = self._base_masks(), self._base_elements()
        elem_bits = np.int64(1) << elems
        dropped = masks[:, None] & ~elem_bits            # B - b, per b in B
        circuits = np.zeros((masks.size, self.size), dtype=np.int64)
        for e in range(self.size):
            bit = np.int64(1) << e
            rows = (masks & bit) == 0
            swapped = dropped[rows] | bit
            found = np.searchsorted(masks, swapped)
            found = masks[np.minimum(found, masks.size - 1)] == swapped
            circuits[rows, e] = bit | (found * elem_bits[rows]).sum(axis=1)
        circuits.flags.writeable = False
        return circuits

    def _base_row(self, base_mask: int) -> int:
        """The base's row in the base list; MatroidError unless it is a
        base."""
        masks = self._base_masks()
        # the range guard keeps searchsorted's key inside int64
        row = (int(np.searchsorted(masks, base_mask))
               if 0 <= base_mask <= self.ground_mask else masks.size)
        if row == masks.size or masks[row] != base_mask:
            raise MatroidError(f"mask {base_mask!r} is not a base")
        return row

    def fundamental_circuit(self, base_mask: int, e: int) -> int:
        """The unique circuit of base + e; contains e, and dropping any of its
        elements restores independence."""
        row = self._base_row(base_mask)
        if not 0 <= e < self.size:
            raise MatroidError("element outside the ground set")
        if base_mask >> e & 1:
            raise MatroidError("element already in the base")
        return int(self.circuit_table[row, e])

    def _minimal_externals_of(self, order: LinearOrder) -> np.ndarray:
        """(bases,) int64 read-only: per base, the mask of the externals e
        that are minimal under `order` in their circuits (no circuit element
        comes before e).  Compiled once per order, which must list exactly
        the ground set (its elements are distinct)."""
        def build():
            if set(order.elements) != set(range(self.size)):
                raise MatroidError(
                    f"order {list(order.elements)} is not a permutation of "
                    f"the ground set 0..{self.size - 1}")
            circuits = self.circuit_table
            # earlier[e]: the mask of the elements before e in the order
            ranked = np.int64(1) << np.array(order.elements, dtype=np.int64)
            earlier = np.empty(self.size, dtype=np.int64)
            earlier[list(order.elements)] = np.cumsum(ranked) - ranked
            minimal = (circuits != 0) & ((circuits & earlier) == 0)
            bad = minimal @ (np.int64(1) << np.arange(self.size, dtype=np.int64))
            bad.flags.writeable = False
            return bad
        return self._compiled(("minimal externals", order.elements), build)

    def is_safe(self, base_mask: int, order: LinearOrder, within: int | None = None) -> bool:
        """True iff no external element is minimal (under `order`) in its
        fundamental circuit; externals are taken inside `within` when given,
        which must then hold the base."""
        scope = self.ground_mask if within is None else within
        self._check_mask(scope)
        row = self._base_row(base_mask)
        if base_mask & ~scope:
            raise MatroidError(f"base {base_mask!r} is not inside {scope!r}")
        return not int(self._minimal_externals_of(order)[row]) & scope

    # -- characteristic polynomial at 0 ------------------------------------------

    def chi_at_zero(self, mask: int | None = None) -> int:
        """chi(0) of the sub-arrangement on a spanning subset (the whole
        ground set by default), read from the chi table.  Exact integer."""
        if mask is None:
            mask = self.ground_mask
        self._check_mask(mask)
        if not self.nb_table[mask]:
            raise MatroidError("subset is not spanning")
        return int(self.chi_table[mask])

    def chi_if_spanning(self, mask: int) -> int:
        """chi_at_zero when the subset spans, else 0."""
        self._check_mask(mask)
        return int(self.chi_table[mask])

    def safe_base_count(self, mask: int | None = None,
                        order: LinearOrder | None = None) -> int:
        """Number of order-safe bases of the sub-arrangement on a spanning
        subset (the whole ground set by default); equals
        (-1)^rank * chi_at_zero for every linear order.  The order must be
        a permutation of the ground set (MatroidError otherwise)."""
        if mask is None:
            mask = self.ground_mask
        if order is None:
            order = LinearOrder.default(self.size)
        self._check_mask(mask)
        safe, inside = self.safe_base_counts(np.array([mask]), order)
        if not inside[0]:
            raise MatroidError("subset is not spanning")
        return int(safe[0])

    def safe_count_if_spanning(self, mask: int, order: LinearOrder) -> int:
        """safe_base_count when the subset spans, else 0."""
        self._check_mask(mask)
        return int(self.safe_base_counts(np.array([mask]), order)[0][0])

    def safe_base_counts(self, masks: np.ndarray, order: LinearOrder):
        """For a 1-D int64 array of subsets: the number of order-safe bases
        inside each (0 where it does not span) and the number of bases
        inside each, as two int64 arrays.  A base B inside S is safe in S
        iff none of its externals inside S is minimal in its circuit, which
        lies in B + e, inside S."""
        bad = self._minimal_externals_of(order)
        bases = self._base_masks()
        uniq, inverse = np.unique(masks, return_inverse=True)
        if uniq.size and (uniq[0] < 0 or uniq[-1] >> self.size):
            raise MatroidError("subset outside the ground set")
        safe = np.empty(uniq.size, dtype=np.int64)
        inside = np.empty(uniq.size, dtype=np.int64)
        # bound each pass's (masks, bases) temporaries to ~2^18 entries
        step = max(1, (1 << 18) // max(1, bad.size))
        for start in range(0, uniq.size, step):
            chunk = uniq[start:start + step, None]
            holds = (bases & ~chunk) == 0
            inside[start:start + step] = holds.sum(axis=1)
            safe[start:start + step] = (holds & ((bad & chunk) == 0)).sum(axis=1)
        return safe[inverse], inside[inverse]


def view_of(source) -> MatroidView:
    """`source` itself when it is a MatroidView, else a new view of the
    arrangement `source`: lets one view's compiled data serve every helper
    of a call."""
    return source if isinstance(source, MatroidView) else MatroidView(source)
