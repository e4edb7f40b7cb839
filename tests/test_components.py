import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmot.components import connected_components, fragmentation_report
from edmot.graph import Graph, build_motif_adjacency, connected_node_sets
from util import block_graph, gnp, relabel


def path_on(ids):
    return [(a, b) for a, b in zip(ids, ids[1:])]


class TestConnectedComponents:
    def test_two_triangles_and_one_loose_node(self):
        # bridge 2-3 and pendant 5-6 create no triangles, so the hypergraph
        # splits into the two triangle cliques and leaves node 6 isolated
        g = Graph.from_pairs(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                                 (2, 3), (5, 6)])
        cs = connected_components(build_motif_adjacency(g))
        assert [set(c) for c in cs.components] == [{0, 1, 2}, {3, 4, 5}]
        assert set(cs.isolated) == {6}

    def test_single_triangle(self):
        h = build_motif_adjacency(Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)]))
        cs = connected_components(h)
        assert [set(c) for c in cs.components] == [{0, 1, 2}]
        assert not cs.isolated

    def test_sorted_by_size_then_min_id(self):
        pairs = path_on(range(10)) + path_on(range(20, 27)) + \
            path_on(range(40, 47)) + path_on(range(60, 62))
        g = Graph.from_pairs(62, pairs)
        cs = connected_components(g)
        sizes = [len(c) for c in cs.components]
        assert sizes == [10, 7, 7, 2]
        assert min(cs.components[1]) == 20
        assert min(cs.components[2]) == 40
        assert len(cs.isolated) == 62 - 26
        assert [min(c) for c in connected_node_sets(g)][:6] == [0, 20, 40, 60, 10, 11]

    @settings(max_examples=60)
    @given(st.integers(0, 2**31), st.integers(2, 25))
    def test_partitions_node_set(self, seed, n):
        g = gnp(n, 0.15, random.Random(seed))
        cs = connected_components(g)
        counted = sum(len(c) for c in cs.components) + len(cs.isolated)
        assert counted == n
        all_ids = set(cs.isolated)
        for c in cs.components:
            assert len(c) >= 2
            assert not (all_ids & c)
            all_ids |= c
        assert all_ids == set(range(n))

    @settings(max_examples=40)
    @given(st.integers(0, 2**31))
    def test_components_have_no_outgoing_edges(self, seed):
        g = gnp(18, 0.12, random.Random(seed))
        cs = connected_components(g)
        for comp in cs.components:
            for u in comp:
                assert set(g.neighbors[u]) <= comp
        for u in cs.isolated:
            assert g.neighbors[u] == []

    def test_split_peak_bounded_by_result(self):
        # 500 blocks of 10 whose hypergraph splits into about 480 components,
        # the shape of a large sparse network that the motif step fragments
        h = build_motif_adjacency(
            block_graph(500, 10, within=6, cross=2, rng=random.Random(7)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs = connected_components(h)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.component_count > 1
        # each component is built once, as the frozenset that is kept: no
        # second copy of the split is ever alive beside the result
        assert peak - base < 1.5 * (current - base)

    def test_node_sets_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for seed, n, p in [(0, 40, 0.03), (1, 40, 0.06), (2, 60, 0.02), (3, 30, 0.2),
                           (4, 1, 0.0), (5, 25, 0.0)]:
            g = gnp(n, p, random.Random(seed))
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edge_pairs())
            sets = connected_node_sets(g)
            assert all(isinstance(c, frozenset) for c in sets)
            assert set(sets) == {frozenset(c) for c in nx.connected_components(G)}
            assert len(sets) == nx.number_connected_components(G)
            for a, b in zip(sets, sets[1:]):
                assert len(a) >= len(b)
                if len(a) == len(b):
                    assert min(a) < min(b)


def report_of(g):
    return fragmentation_report(connected_components(build_motif_adjacency(g)))


class TestFragmentationReport:
    def test_connected_k4(self):
        g = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        rep = report_of(g)
        assert rep["component_count"] == 1
        assert rep["isolated_count"] == 0
        assert rep["largest_component_size"] == 4

    def test_triangle_with_pendant(self):
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        rep = report_of(g)
        assert rep["component_count"] == 1
        assert rep["isolated_count"] == 1
        assert rep["isolated_fraction"] == pytest.approx(0.25)
        assert rep["component_size_histogram"] == {3: 1}

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(3, 40), st.floats(0.05, 0.5), st.randoms(use_true_random=False))
    def test_invariant_under_relabelling(self, n, p, rnd):
        g = gnp(n, p, random.Random(rnd.random()))
        perm = list(range(n))
        rnd.shuffle(perm)
        assert report_of(relabel(g, perm)) == report_of(g)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(1, 40), st.floats(0.0, 0.5), st.integers(0, 2**31))
    def test_counts_every_node_of_the_graph(self, n, p, seed):
        # the components and the isolated nodes partition the node set, so
        # the report needs no graph to count it
        g = gnp(n, p, random.Random(seed))
        rep = report_of(g)
        assert rep["node_count"] == g.node_count
        assert rep["largest_component_size"] == max(
            [len(c) for c in connected_node_sets(build_motif_adjacency(g))
             if len(c) >= 2], default=0)
