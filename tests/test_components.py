import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmot.components import (ComponentSet, connected_components,
                              fragmentation_report, top_k_components)
from edmot.graph import Graph, connected_node_sets
from edmot.motif import build_motif_adjacency
from util import gnp, relabel


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


class TestTopK:
    def _component_set(self):
        pairs = path_on(range(10)) + path_on(range(20, 27)) + \
            path_on(range(40, 47)) + path_on(range(60, 62))
        return connected_components(Graph.from_pairs(62, pairs))

    def test_k2_takes_size_then_tie_rule(self):
        top = top_k_components(self._component_set(), 2)
        assert [len(c) for c in top] == [10, 7]
        assert min(top[1]) == 20

    def test_k1_gives_largest(self):
        top = top_k_components(self._component_set(), 1)
        assert top == [set(range(10))]

    def test_k_beyond_count_truncates(self):
        cs = self._component_set()
        assert len(top_k_components(cs, 99)) == cs.component_count

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            top_k_components(self._component_set(), 0)

    def test_prefix_of_ordering(self):
        cs = self._component_set()
        top3 = top_k_components(cs, 3)
        assert top3 == [set(c) for c in cs.components[:3]]

    def test_empty_component_set(self):
        cs = ComponentSet(components=(), isolated=frozenset({0, 1}))
        assert top_k_components(cs, 1) == []


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
