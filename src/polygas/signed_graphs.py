"""Signed multigraphs: balance, the balanced/unbalanced component split,
counting balanced liftings of a connected graph, and the combinatorial
characterization of the pair-functional (type D) arrangement's bases.

Vertices are 0..n-1.  Edges are (i, j, sign) with i < j and sign in
{+1, -1}; at most one edge of each sign per pair, no loops.  The edge
(i, j, +1) corresponds to the difference functional x_i - x_j and
(i, j, -1) to the sum functional x_i + x_j.
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
# connected components by union-find
# --------------------------------------------------------------------------

def _components(n: int, edges) -> list:
    """The vertex lists of the connected components of the graph on 0..n-1
    with the given edges (i, j, ...), ordered by smallest vertex."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j, *_) in edges:
        parent[find(i)] = find(j)
    comps: dict[int, list] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _component_graphs(g: SignedGraph):
    """(vertices, edges) of each connected component of g."""
    comps = _components(g.n, g.edges)
    index = {v: c for c, verts in enumerate(comps) for v in verts}
    edges = [[] for _ in comps]
    for e in g.edges:
        edges[index[e[0]]].append(e)
    return zip(comps, edges)


# --------------------------------------------------------------------------
# union-find with parity: sigma_root(i) xor parity[i] is consistent iff the
# graph is balanced (an edge of sign s demands parity difference (s == -1))
# --------------------------------------------------------------------------

class _ParityUF:
    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.bad_roots = set()

    def find(self, i):
        path = []
        while self.parent[i] != i:
            path.append(i)
            i = self.parent[i]
        p = 0
        for node in reversed(path):
            p ^= self.parity[node]
            self.parent[node] = i
            self.parity[node] = p
        return i

    def union(self, i, j, want):
        ri, rj = self.find(i), self.find(j)
        pi = self.parity[i] if self.parent[i] != i else 0
        pj = self.parity[j] if self.parent[j] != j else 0
        if ri == rj:
            if pi ^ pj != want:
                self.bad_roots.add(ri)
            return
        self.parent[rj] = ri
        self.parity[rj] = pi ^ pj ^ want
        if rj in self.bad_roots:
            self.bad_roots.discard(rj)
            self.bad_roots.add(ri)


def _parity_structure(g: SignedGraph) -> _ParityUF:
    uf = _ParityUF(g.n)
    for (i, j, s) in g.edges:
        uf.union(i, j, 1 if s == -1 else 0)
    return uf


def is_balanced(g: SignedGraph) -> bool:
    """Every cycle (including two-cycles from parallel +- edges) has sign
    product +1; decided by the vertex-signing criterion."""
    return not _parity_structure(g).bad_roots


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
    uf = _parity_structure(g)
    bad = {uf.find(r) for r in uf.bad_roots}
    bal_v, unbal_v = set(), set()
    for v in range(g.n):
        (unbal_v if uf.find(v) in bad else bal_v).add(v)
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
    if len(_components(n, edges)) != 1:
        raise ValueError("graph must be connected")
    return 1 << (n - 1)


# --------------------------------------------------------------------------
# type D dictionary and base characterization
# --------------------------------------------------------------------------

def _unique_cycle_sign(vertices, edges):
    """Sign product of the unique cycle of a connected unicyclic multigraph,
    found by pruning degree-1 vertices."""
    edges = list(edges)
    degree = {v: 0 for v in vertices}
    for (i, j, _) in edges:
        degree[i] += 1
        degree[j] += 1
    changed = True
    while changed:
        changed = False
        for v, d in list(degree.items()):
            if d == 1:
                for idx, (i, j, s) in enumerate(edges):
                    if v in (i, j):
                        degree[i] -= 1
                        degree[j] -= 1
                        edges.pop(idx)
                        changed = True
                        break
    sign = 1
    for (_, _, s) in edges:
        sign *= s
    return sign


def is_dn_base(g: SignedGraph) -> bool:
    """True iff the graph spans all n vertices, every component contains
    exactly one cycle, and that cycle is unbalanced: the signed cycle-rooted
    spanning forests that index the pair-functional arrangement's bases."""
    return all(len(edges) == len(verts)
               and _unique_cycle_sign(verts, edges) == -1
               for verts, edges in _component_graphs(g))


def is_dn_independent(g: SignedGraph) -> bool:
    """Independence of the corresponding normals: no component carries two
    cycles (edge count <= vertex count) and a component's unique cycle, if
    any, is unbalanced.  A component with more edges than vertices has two
    independent cycles, whose combination always yields a dependency."""
    for verts, edges in _component_graphs(g):
        if len(edges) > len(verts):
            return False
        if len(edges) == len(verts) and _unique_cycle_sign(verts, edges) != -1:
            return False
    return True


def dn_mask_to_graph(n: int, mask: int) -> SignedGraph:
    """Decode a subset of the coxeter_d(n) arrangement (construction order:
    for each pair i<j, difference then sum) into its signed graph under the
    dictionary difference <-> +, sum <-> -."""
    edges = []
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> idx & 1:
                edges.append((i, j, 1))
            if mask >> (idx + 1) & 1:
                edges.append((i, j, -1))
            idx += 2
    return SignedGraph(n, tuple(edges))


def dn_graph_to_mask(g: SignedGraph) -> int:
    mask = 0
    pair_index = {}
    idx = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            pair_index[(i, j)] = idx
            idx += 2
    for (i, j, s) in g.edges:
        mask |= 1 << (pair_index[(i, j)] + (0 if s == 1 else 1))
    return mask


def spans_with_unbalanced_components(g: SignedGraph) -> bool:
    """Rank-n criterion for subsets of the pair-functional arrangement:
    every connected component (including isolated vertices) contains an
    unbalanced cycle."""
    split = split_components(g)
    return not split.balanced_vertices
