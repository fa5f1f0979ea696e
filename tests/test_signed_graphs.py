from itertools import combinations, product

import numpy as np
import pytest

from polygas.arrangement import coxeter_d
from polygas.matroid import MatroidView, popcount
from polygas.signed_graphs import (SignedGraph, balanced_liftings,
                                   dn_graph_to_mask, dn_mask_to_graph,
                                   is_balanced, is_dn_base, is_dn_independent,
                                   signed_graph, spans_with_unbalanced_components,
                                   split_components)


# -- exhaustive cycle oracle -------------------------------------------------

def all_cycle_signs(g: SignedGraph):
    """Every simple cycle of the multigraph (including 2-cycles through
    parallel edges), by DFS from its minimal vertex; returns sign products."""
    adj = {v: [] for v in range(g.n)}
    for idx, (i, j, s) in enumerate(g.edges):
        adj[i].append((j, idx, s))
        adj[j].append((i, idx, s))
    seen = set()
    signs = []

    def dfs(start, current, visited, used, sign):
        for (nxt, idx, s) in adj[current]:
            if idx in used:
                continue
            if nxt == start and len(used) >= 1:
                key = frozenset(used | {idx})
                if key not in seen:
                    seen.add(key)
                    signs.append(sign * s)
            elif nxt not in visited and nxt > start:
                dfs(start, nxt, visited | {nxt}, used | {idx}, sign * s)

    for start in range(g.n):
        dfs(start, start, {start}, frozenset(), 1)
    return signs


def brute_is_balanced(g: SignedGraph) -> bool:
    return all(s == 1 for s in all_cycle_signs(g))


def all_signed_graphs(n):
    pairs = list(combinations(range(n), 2))
    # per pair: absent, +, -, both
    for states in product(range(4), repeat=len(pairs)):
        edges = []
        for (i, j), st in zip(pairs, states):
            if st in (1, 3):
                edges.append((i, j, 1))
            if st in (2, 3):
                edges.append((i, j, -1))
        yield SignedGraph(n, tuple(edges))


# -- balance -------------------------------------------------------------------

def test_balance_examples():
    assert is_balanced(signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
    assert not is_balanced(signed_graph(2, [(0, 1, 1), (0, 1, -1)]))
    assert is_balanced(signed_graph(3, [(0, 1, -1), (1, 2, -1), (0, 2, 1)]))


def test_balance_matches_cycle_enumeration_small():
    for n in range(1, 5):
        for g in all_signed_graphs(n):
            assert is_balanced(g) == brute_is_balanced(g)


def test_balance_matches_cycle_enumeration_n5_sample():
    import random
    rng = random.Random(7)
    pairs = list(combinations(range(5), 2))
    for _ in range(300):
        edges = []
        for (i, j) in pairs:
            st = rng.randrange(4)
            if st in (1, 3):
                edges.append((i, j, 1))
            if st in (2, 3):
                edges.append((i, j, -1))
        g = SignedGraph(5, tuple(edges))
        assert is_balanced(g) == brute_is_balanced(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        signed_graph(3, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        signed_graph(3, [(1, 0, 1)])  # i >= j
    with pytest.raises(ValueError):
        signed_graph(3, [(0, 1, 1), (0, 1, 1)])  # duplicate triple


# -- component split -------------------------------------------------------------

def test_split_triangle_plus_pair():
    g = signed_graph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (3, 4, -1)])
    split = split_components(g)
    assert split.balanced_vertices == frozenset({0, 1, 2})
    assert split.unbalanced_vertices == frozenset({3, 4})
    assert set(split.unbalanced_edges) == {(3, 4, 1), (3, 4, -1)}


def test_split_empty_graph():
    split = split_components(signed_graph(3, []))
    assert split.balanced_vertices == frozenset({0, 1, 2})
    assert split.unbalanced_vertices == frozenset()


def test_split_single_unbalanced_cycle():
    split = split_components(signed_graph(2, [(0, 1, 1), (0, 1, -1)]))
    assert split.balanced_vertices == frozenset()
    assert split.unbalanced_vertices == frozenset({0, 1})


# -- balanced liftings ------------------------------------------------------------

def test_liftings_examples():
    assert balanced_liftings(2, [(0, 1)]) == 2
    assert balanced_liftings(3, [(0, 1), (1, 2), (0, 2)]) == 4
    assert balanced_liftings(4, [(0, 1), (1, 2), (2, 3)]) == 8


def test_liftings_requires_connected():
    with pytest.raises(ValueError):
        balanced_liftings(4, [(0, 1), (2, 3)])


def count_balanced_signings(n, edges):
    total = 0
    for signs in product((1, -1), repeat=len(edges)):
        g = SignedGraph(n, tuple((i, j, s) for (i, j), s in zip(edges, signs)))
        if is_balanced(g):
            total += 1
    return total


def fundamental_cycle_masks(n, edges):
    """Edge bitmask of the cycle each non-tree edge closes over a DFS tree."""
    adj = {v: [] for v in range(n)}
    tree = set()
    parent_edge = {}
    parent = {0: None}
    for idx, (i, j) in enumerate(edges):
        adj[i].append((j, idx))
        adj[j].append((i, idx))
    stack = [0]
    seen = {0}
    while stack:
        v = stack.pop()
        for (w, idx) in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(idx)
                parent[w] = v
                parent_edge[w] = idx
                stack.append(w)
    masks = []
    for idx, (i, j) in enumerate(edges):
        if idx in tree:
            continue
        # path i -> root and j -> root; symmetric difference is the cycle
        def path(v):
            out = set()
            while parent[v] is not None:
                out.add(parent_edge[v])
                v = parent[v]
            return out
        cyc = path(i) ^ path(j)
        cyc.add(idx)
        mask = 0
        for e in cyc:
            mask |= 1 << e
        masks.append(mask)
    return masks


_POPCOUNT16 = np.array([bin(v).count("1") for v in range(1 << 16)], dtype=np.uint8)


def count_balanced_signings_fast(n, edges):
    """Exhaustive over all 2^E signings: balanced iff every fundamental cycle
    carries an even number of minus edges (sign is linear on the cycle
    space).  Vectorized for graphs up to ~16 edges."""
    E = len(edges)
    signings = np.arange(1 << E, dtype=np.uint32)
    ok = np.ones(1 << E, dtype=bool)
    for mask in fundamental_cycle_masks(n, edges):
        hits = signings & np.uint32(mask)
        parity = (_POPCOUNT16[hits & 0xFFFF] + _POPCOUNT16[hits >> 16]) & 1
        ok &= parity == 0
    return int(ok.sum())


def connected_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[p] for p in range(len(pairs)) if mask >> p & 1]
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for (i, j) in edges:
            parent[find(i)] = find(j)
        if len({find(v) for v in range(n)}) == 1:
            yield edges


def test_fast_signing_count_matches_direct():
    for n in range(2, 5):
        for edges in connected_graphs(n):
            assert count_balanced_signings(n, edges) == \
                count_balanced_signings_fast(n, edges)


def test_liftings_exhaustive():
    # all connected graphs for n <= 5; every signing enumerated per graph
    for n in range(1, 6):
        for edges in connected_graphs(n):
            assert count_balanced_signings_fast(n, edges) == \
                balanced_liftings(n, edges)
    # n = 6: the extremes plus a seeded sample (acceptance covers all graphs)
    import random
    rng = random.Random(3)
    pairs = list(combinations(range(6), 2))
    k6 = pairs
    tree = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    cycle = tree + [(0, 5)]
    samples = [k6, tree, cycle]
    while len(samples) < 20:
        edges = sorted(p for p in pairs if rng.random() < 0.5)
        try:
            balanced_liftings(6, edges)
        except ValueError:
            continue
        samples.append(edges)
    for edges in samples:
        assert count_balanced_signings_fast(6, edges) == \
            balanced_liftings(6, edges)


def test_connected_balanced_counting_consequence():
    # number of connected balanced signed graphs = 2^(n-1) * connected graphs
    for n in range(1, 6):
        conn = list(connected_graphs(n))
        total = sum(count_balanced_signings(n, edges) for edges in conn)
        assert total == (1 << (n - 1)) * len(conn)


# -- type D base characterization ----------------------------------------------------

def test_dn_base_examples():
    assert is_dn_base(signed_graph(2, [(0, 1, 1), (0, 1, -1)]))
    assert not is_dn_base(signed_graph(2, [(0, 1, 1)]))
    assert is_dn_base(signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]))


def test_dn_dictionary_round_trip():
    for n in (2, 3, 4):
        for mask in range(0, 1 << (n * (n - 1)), 7):
            g = dn_mask_to_graph(n, mask)
            assert dn_graph_to_mask(g) == mask


def dn_sample_masks(n, per_size, seed):
    """per_size random subsets of coxeter_d(n)'s hyperplanes of every size."""
    import random
    rng = random.Random(seed)
    size = n * (n - 1)
    return [sum(1 << e for e in rng.sample(range(size), k))
            for k in range(size + 1) for _ in range(per_size)]


def test_dn_base_matches_exact_independence():
    # over ALL subsets of the 2*C(n,2) pair hyperplanes for n <= 4, and for
    # n = 5 (2^20 subsets) 143 seeded subsets of each size 0..20, where
    # components reach five vertices and twenty edges; the cycle enumeration
    # checks the balance flag there too
    cases = [(n, range(1 << (n * (n - 1)))) for n in range(2, 5)]
    cases.append((5, dn_sample_masks(5, 143, seed=5)))
    for n, masks in cases:
        view = MatroidView(coxeter_d(n))
        for mask in masks:
            g = dn_mask_to_graph(n, mask)
            independent = view.rank_of(mask) == popcount(mask)
            assert independent == is_dn_independent(g)
            assert view.is_base(mask) == is_dn_base(g)
            assert view.is_spanning(mask) == spans_with_unbalanced_components(g)
            if n == 5:
                assert is_balanced(g) == brute_is_balanced(g)


def test_dn_mask_to_graph_refuses_masks_outside_the_ground_set():
    # coxeter_d(2) has the two hyperplanes x0 - x1 and x0 + x1
    assert dn_graph_to_mask(dn_mask_to_graph(2, 0b11)) == 0b11
    for mask in (0b110, 0b100, -1, 1 << 63):
        with pytest.raises(ValueError, match="coxeter_d"):
            dn_mask_to_graph(2, mask)
