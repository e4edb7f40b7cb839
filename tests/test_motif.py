import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmot.graph import Graph, build_motif_adjacency
from util import (assert_identical, block_graph, brute_force_motif_adjacency,
                  count_triangles, enumerate_triangles, gnp, has_edge,
                  motif_adjacency_reference, pair_weight_map, relabel,
                  triangle_triples_scan, weight)

K3 = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@st.composite
def random_graphs(draw):
    n = draw(st.integers(3, 14))
    seed = draw(st.integers(0, 2**31))
    p = draw(st.floats(0.05, 0.7))
    return gnp(n, p, random.Random(seed))


@st.composite
def hub_graphs(draw):
    """A random graph plus one node adjacent to every other node."""
    g = draw(random_graphs())
    hub = draw(st.integers(0, g.node_count - 1))
    pairs = set(g.edge_pairs()) | {(min(hub, v), max(hub, v))
                                   for v in range(g.node_count) if v != hub}
    return Graph.from_pairs(g.node_count, sorted(pairs))


@st.composite
def degree_tied_graphs(draw):
    """Circulant graphs or disjoint cliques, randomly relabelled: both ends
    of every edge share one degree, so the ids alone decide which end
    counts the edge."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 14))
        offsets = draw(st.sets(st.integers(1, n // 2), min_size=1))
        pairs = {(min(u, (u + d) % n), max(u, (u + d) % n)) for u in range(n) for d in offsets}
    else:
        sizes = draw(st.lists(st.integers(3, 6), min_size=1, max_size=4))
        n = sum(sizes)
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        pairs = {(s + i, s + j) for s, k in zip(starts, sizes)
                 for i, j in combinations(range(k), 2)}
    g = Graph.from_pairs(n, sorted(pairs))
    return relabel(g, draw(st.permutations(range(n))))


def assert_motif_invariants(g, h):
    # zero diagonal and symmetry are structural Graph guarantees; check anyway
    for u in range(h.node_count):
        assert u not in h.neighbors[u]
        for v, w in zip(h.neighbors[u], h.edge_weights[u]):
            assert weight(h, v, u) == w
    assert h.node_count == g.node_count
    for u, v, w in h.edges():
        assert w > 0 and float(w).is_integer()
        assert has_edge(g, u, v), "motif co-occurrence implies original adjacency"
    tri = list(enumerate_triangles(g))
    assert h.total_weight == 3 * len(tri)


class TestEnumerate:
    def test_k3_single_triangle(self):
        assert list(enumerate_triangles(K3)) == [(0, 1, 2)]

    def test_path_has_none(self):
        path = Graph.from_pairs(3, [(0, 1), (1, 2)])
        assert list(enumerate_triangles(path)) == []

    def test_k4_all_four(self):
        assert list(enumerate_triangles(K4)) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_lexicographic_order_and_count(self):
        rng = random.Random(3)
        g = gnp(25, 0.3, rng)
        tris = list(enumerate_triangles(g))
        assert tris == sorted(tris)
        assert len(set(tris)) == len(tris)
        assert count_triangles(g) == len(tris)

    @settings(max_examples=80)
    @given(random_graphs())
    def test_matches_triple_scan(self, g):
        assert set(enumerate_triangles(g)) == triangle_triples_scan(g)


class TestMotifAdjacency:
    def test_k4_every_pair_in_two_triangles(self):
        h = build_motif_adjacency(K4)
        assert {e[:2] for e in h.edges()} == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert all(w == 2.0 for _, _, w in h.edges())

    def test_pendant_edge_joins_no_triangle(self):
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        h = build_motif_adjacency(g)
        assert pair_weight_map(h) == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
        assert h.neighbors[3] == []

    def test_star_is_triangle_free(self):
        star = Graph.from_pairs(6, [(0, i) for i in range(1, 6)])
        assert build_motif_adjacency(star).edge_count == 0
        assert brute_force_motif_adjacency(star).edge_count == 0

    def test_weights_ignore_input_weights(self):
        weighted = Graph(3, [(0, 1, 5.0), (1, 2, 0.5), (0, 2, 2.0)])
        assert pair_weight_map(build_motif_adjacency(weighted)) == {
            (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}

    def test_hub_edges_cost_the_leaf_degree(self):
        # 10,000 triangles through one hub of degree 20,000. Counting each
        # hub edge by walking the leaf's row makes about 10**5 lookups;
        # walking the hub's row instead would make 4 * 10**8.
        rng = random.Random(5)
        hub = 10_000
        leaves = [u for u in range(20_001) if u != hub]
        rng.shuffle(leaves)
        pairs = {(min(hub, v), max(hub, v)) for v in leaves}
        pairs |= {(min(a, b), max(a, b)) for a, b in zip(leaves[::2], leaves[1::2])}
        g = Graph.from_pairs(20_001, sorted(pairs))
        t0 = time.perf_counter()
        h = build_motif_adjacency(g)
        elapsed = time.perf_counter() - t0
        assert h.edge_count == 30_000
        assert all(w == 1.0 for _, _, w in h.edges())
        assert elapsed < 5.0

    def test_peak_memory_bounded_by_result(self):
        # 500 blocks of 10, the shape of a large sparse network that the
        # hypergraph fragments
        g = block_graph(500, 10, within=6, cross=2, rng=random.Random(7))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = build_motif_adjacency(g)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.edge_count > 0
        # one neighbour set alive at a time, and nothing per edge besides
        # the result itself
        assert peak - base < 1.1 * (current - base)

    def test_one_weight_object_per_count(self):
        h = build_motif_adjacency(block_graph(500, 10, within=6, cross=2, rng=random.Random(7)))
        weights = [w for row in h.edge_weights for w in row]
        assert len({id(w) for w in weights}) == len(set(weights)) > 1

    @settings(max_examples=80)
    @given(random_graphs())
    def test_equals_brute_force(self, g):
        fast = build_motif_adjacency(g)
        assert fast == brute_force_motif_adjacency(g)
        assert_motif_invariants(g, fast)


class TestBruteForce:
    def test_matches_on_k3(self):
        assert brute_force_motif_adjacency(K3) == build_motif_adjacency(K3)

    def test_cap_enforced(self):
        g = Graph.from_pairs(12, [(i, i + 1) for i in range(11)])
        with pytest.raises(ValueError, match="cap"):
            brute_force_motif_adjacency(g, node_cap=10)


class TestMotifOracle:
    """The per-edge common-neighbour kernel against the dict-of-triples
    kernel it replaced: every field equal, sums included."""

    @settings(max_examples=150, derandomize=True)
    @given(st.one_of(random_graphs(), hub_graphs(), degree_tied_graphs()))
    def test_equals_reference(self, g):
        assert_identical(build_motif_adjacency(g), motif_adjacency_reference(g))

    def test_weighted_input_and_larger_graphs(self):
        rng = random.Random(11)
        for n, p in ((60, 0.2), (120, 0.08), (200, 0.03)):
            g = gnp(n, p, rng)
            weighted = Graph(n, ((u, v, rng.choice((0.5, 1.0, 3.25))) for u, v in g.edge_pairs()))
            assert_identical(build_motif_adjacency(weighted), motif_adjacency_reference(g))

    @settings(max_examples=80, derandomize=True)
    @given(st.one_of(random_graphs(), hub_graphs(), degree_tied_graphs()),
           st.randoms(use_true_random=False))
    def test_relabelling_commutes(self, g, rnd):
        perm = list(range(g.node_count))
        rnd.shuffle(perm)
        assert build_motif_adjacency(relabel(g, perm)) == relabel(build_motif_adjacency(g), perm)

    def test_node_weights_are_networkx_triangle_counts(self):
        # each triangle at u adds 1 to two of u's hypergraph edges
        nx = pytest.importorskip("networkx")
        rng = random.Random(29)
        graphs = [nx.karate_club_graph()]
        for n, p in ((30, 0.3), (80, 0.1), (150, 0.05)):
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(gnp(n, p, rng).edge_pairs())
            graphs.append(nxg)
        for nxg in graphs:
            h = build_motif_adjacency(Graph.from_pairs(nxg.number_of_nodes(), nxg.edges()))
            triangles = nx.triangles(nxg)
            assert all(math.fsum(h.edge_weights[u]) / 2 == triangles[u]
                       for u in range(h.node_count))
