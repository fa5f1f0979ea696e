"""Signed multigraphs: balance, the balanced/unbalanced component split,
counting balanced liftings of a connected graph, and the combinatorial
characterization of the pair-functional (type D) arrangement's bases.

Vertices are 0..n-1.  Edges are (i, j, sign) with i < j and sign in
{+1, -1}; at most one edge of each sign per pair, no loops.  The edge
(i, j, +1) corresponds to the difference functional x_i - x_j and
(i, j, -1) to the sum functional x_i + x_j.

Every question is answered by one union-find with parity (`_Components`)
that keeps, per connected component, its vertex count, its edge count and
whether it is balanced.  A connected component with |E| = |V| has exactly
one cycle (its cycle space has dimension |E| - |V| + 1), so that cycle is
unbalanced exactly when the component is: the frame-matroid bases (a
spanning forest of unicyclic components with unbalanced cycles, Zaslavsky
1982) are read off the counts and the flag without finding any cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SignedGraph:
    n: int
    edges: tuple  # ((i, j, sign), ...)

    def __post_init__(self):
        seen = set()
        for (i, j, s) in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) needs 0 <= i < j < n")
            if s not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            if (i, j, s) in seen:
                raise ValueError(f"duplicate edge ({i},{j},{s:+d})")
            seen.add((i, j, s))


def signed_graph(n, edges) -> SignedGraph:
    return SignedGraph(n, tuple((i, j, s) for i, j, s in edges))


# --------------------------------------------------------------------------
# connected components by union-find with parity: the graph is balanced iff
# the vertices can be signed so that every edge (i, j, s) has
# sigma_i sigma_j = s, i.e. parity_i xor parity_j == (s == -1)
# --------------------------------------------------------------------------

class _Components:
    """The connected components of the graph on 0..n-1 with the given edges,
    (i, j, sign) or unsigned (i, j).  Per root: the component's vertex
    count, edge count and balance."""

    def __init__(self, n: int, edges):
        self.parent = list(range(n))
        self.parity = [0] * n       # relative to the parent
        self.vertex_count = [1] * n
        self.edge_count = [0] * n
        self.balanced = [True] * n
        for (i, j, *sign) in edges:
            self._join(i, j, sign == [-1])

    def find(self, v: int) -> int:
        """The root of v's component; afterwards parity[v] is v's parity
        relative to it (a root's parity is 0)."""
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        parity = 0
        for node in reversed(path):
            parity ^= self.parity[node]
            self.parent[node] = v
            self.parity[node] = parity
        return v

    def _join(self, i: int, j: int, odd: bool) -> None:
        ri, rj = self.find(i), self.find(j)
        odd ^= self.parity[i] ^ self.parity[j]
        if ri == rj:
            self.edge_count[ri] += 1
            self.balanced[ri] = self.balanced[ri] and not odd
            return
        self.parent[rj] = ri
        self.parity[rj] = odd
        self.vertex_count[ri] += self.vertex_count[rj]
        self.edge_count[ri] += self.edge_count[rj] + 1
        self.balanced[ri] = self.balanced[ri] and self.balanced[rj]

    def counts(self) -> list:
        """(vertex count, edge count, balanced) of each component."""
        return [(self.vertex_count[v], self.edge_count[v], self.balanced[v])
                for v, p in enumerate(self.parent) if p == v]


def is_balanced(g: SignedGraph) -> bool:
    """Every cycle (including two-cycles from parallel +- edges) has sign
    product +1; decided by the vertex-signing criterion."""
    return all(bal for _, _, bal in _Components(g.n, g.edges).counts())


@dataclass(frozen=True)
class ComponentSplit:
    balanced_vertices: frozenset
    balanced_edges: tuple
    unbalanced_vertices: frozenset
    unbalanced_edges: tuple


def split_components(g: SignedGraph) -> ComponentSplit:
    """Partition the vertices by connected component; a component is
    unbalanced iff it contains an unbalanced cycle.  Isolated vertices are
    balanced."""
    comps = _Components(g.n, g.edges)
    bal_v, unbal_v = set(), set()
    for v in range(g.n):
        (bal_v if comps.balanced[comps.find(v)] else unbal_v).add(v)
    bal_e = tuple(e for e in g.edges if e[0] in bal_v)
    unbal_e = tuple(e for e in g.edges if e[0] in unbal_v)
    return ComponentSplit(frozenset(bal_v), bal_e, frozenset(unbal_v), unbal_e)


def balanced_liftings(n: int, edges) -> int:
    """Number of balanced signings of a connected simple graph: 2^(n-1).

    The graph must be connected (and has no signs); each vertex labelling
    sigma in {+,-}^n induces the balanced signing sigma_i * sigma_j, and
    exactly two labellings give each signing.
    """
    edges = [tuple(e) for e in edges]
    if n < 1:
        raise ValueError("need at least one vertex")
    seen = set()
    for (i, j) in edges:
        if not (0 <= i < j < n):
            raise ValueError("edges must satisfy 0 <= i < j < n")
        if (i, j) in seen:
            raise ValueError("graph must be simple")
        seen.add((i, j))
    if len(_Components(n, edges).counts()) != 1:
        raise ValueError("graph must be connected")
    return 1 << (n - 1)


# --------------------------------------------------------------------------
# type D dictionary and base characterization
# --------------------------------------------------------------------------

def _dn_edges(n: int) -> list:
    """The signed edges of coxeter_d(n)'s hyperplanes in construction
    order: for each pair i < j, the difference (i, j, +1) then the sum
    (i, j, -1)."""
    return [(i, j, s) for i in range(n) for j in range(i + 1, n)
            for s in (1, -1)]


def is_dn_base(g: SignedGraph) -> bool:
    """True iff the graph spans all n vertices, every component contains
    exactly one cycle, and that cycle is unbalanced: the signed cycle-rooted
    spanning forests that index the pair-functional arrangement's bases."""
    return all(e == v and not bal
               for v, e, bal in _Components(g.n, g.edges).counts())


def is_dn_independent(g: SignedGraph) -> bool:
    """Independence of the corresponding normals: no component carries two
    cycles (edge count <= vertex count) and a component's unique cycle, if
    any, is unbalanced.  A component with more edges than vertices has two
    independent cycles, whose combination always yields a dependency."""
    return all(e < v or e == v and not bal
               for v, e, bal in _Components(g.n, g.edges).counts())


def dn_mask_to_graph(n: int, mask: int) -> SignedGraph:
    """Decode a subset of the coxeter_d(n) arrangement into its signed graph
    under the dictionary difference <-> +, sum <-> -.  ValueError for a
    negative mask or a bit at or above its n(n - 1) hyperplanes."""
    edges = _dn_edges(n)
    if mask < 0 or mask >> len(edges):
        raise ValueError(f"mask {mask!r} is not a subset of the "
                         f"{len(edges)} hyperplanes of coxeter_d({n})")
    return SignedGraph(n, tuple(e for bit, e in enumerate(edges)
                                if mask >> bit & 1))


def dn_graph_to_mask(g: SignedGraph) -> int:
    bit = {e: b for b, e in enumerate(_dn_edges(g.n))}
    return sum(1 << bit[e] for e in g.edges)


def spans_with_unbalanced_components(g: SignedGraph) -> bool:
    """Rank-n criterion for subsets of the pair-functional arrangement:
    every connected component (including isolated vertices) contains an
    unbalanced cycle."""
    return not any(bal for _, _, bal in _Components(g.n, g.edges).counts())
