import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmot.components import (_motif_roots, connected_components, fragmentation_report,
                              motif_components)
from edmot.graph import Graph, build_motif_adjacency
from util import block_graph, built_hypergraph_report, disjoint_union, gnp, relabel


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
        assert [min(c) for c in cs.components] == [0, 20, 40, 60]

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
            assert all_ids.isdisjoint(c)
            all_ids.update(c)
        assert all_ids == set(range(n))

    @settings(max_examples=40)
    @given(st.integers(0, 2**31))
    def test_components_have_no_outgoing_edges(self, seed):
        g = gnp(18, 0.12, random.Random(seed))
        cs = connected_components(g)
        for comp in cs.components:
            for u in comp:
                assert set(g.neighbors[u]) <= set(comp)
        for u in cs.isolated:
            assert g.neighbors[u] == []

    def test_split_peak_bounded_by_result(self):
        # 500 blocks of 10 whose hypergraph splits into about 480 components,
        # the shape of a large sparse network that the motif step fragments
        h = build_motif_adjacency(
            block_graph(500, 10, within=6, cross=2, rng=random.Random(7)))
        # tracemalloc does not count a tuple reused from the interpreter's
        # free lists, so what the split keeps reads smaller when earlier work
        # has filled them; one untraced call fills them whatever ran before
        connected_components(h)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs = connected_components(h)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.component_count > 1
        # each component is built once, as the tuple that is kept: no second
        # copy of the split is ever alive beside the result
        assert peak - base < 1.5 * (current - base)

    def test_node_sets_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for seed, n, p in [(0, 40, 0.03), (1, 40, 0.06), (2, 60, 0.02), (3, 30, 0.2),
                           (4, 1, 0.0), (5, 25, 0.0)]:
            g = gnp(n, p, random.Random(seed))
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edge_pairs())
            cs = connected_components(g)
            sets = cs.components
            assert all(isinstance(c, tuple) for c in sets)
            assert set(sets) | {(u,) for u in cs.isolated} == {
                tuple(sorted(c)) for c in nx.connected_components(G)}
            assert len(sets) + len(cs.isolated) == nx.number_connected_components(G)
            for a, b in zip(sets, sets[1:]):
                assert len(a) >= len(b)
                if len(a) == len(b):
                    assert min(a) < min(b)


def clique(n: int) -> Graph:
    return Graph.from_pairs(n, combinations(range(n), 2))


def star(leaves: int, paired: bool = False) -> Graph:
    """Hub ``leaves`` joined to every leaf; ``paired`` also joins leaves 2i
    and 2i + 1, so every leaf pair closes a triangle with the hub."""
    pairs = [(leaf, leaves) for leaf in range(leaves)]
    if paired:
        pairs += [(leaf, leaf + 1) for leaf in range(0, leaves - 1, 2)]
    return Graph.from_pairs(leaves + 1, pairs)


def bipartite(a: int, b: int) -> Graph:
    return Graph.from_pairs(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def roots_report(g: Graph) -> dict:
    """The report as ``edmot components`` counts it, from the search's roots."""
    return fragmentation_report(Counter(_motif_roots(g)).values())


class TestMotifComponents:
    """The direct search equals the split of the built hypergraph, which
    stays here as its oracle: the same components in the same order, the
    same isolated nodes, and the same report counted from the roots."""

    @staticmethod
    def check(g: Graph) -> None:
        assert motif_components(g) == connected_components(build_motif_adjacency(g))
        assert roots_report(g) == built_hypergraph_report(g)

    @settings(max_examples=80, derandomize=True)
    @given(st.integers(1, 40), st.floats(0.0, 0.5), st.integers(0, 2**31))
    def test_random_graphs(self, n, p, seed):
        self.check(gnp(n, p, random.Random(seed)))

    @pytest.mark.parametrize("g", [
        Graph(0, []), Graph(1, []), Graph(5, []), bipartite(3, 4), bipartite(1, 9),
        Graph.from_pairs(8, [(u, (u + 1) % 8) for u in range(8)]),
        Graph.from_pairs(12, [(u, u // 2 + 6) for u in range(6)] + [(6, 7), (8, 9)]),
    ], ids=["empty", "one-node", "edgeless", "k3-4", "k1-9", "cycle-8", "forest"])
    def test_triangle_free_graphs_are_all_isolated(self, g):
        self.check(g)
        assert motif_components(g).components == ()

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_cliques_are_one_component(self, n):
        self.check(clique(n))
        assert motif_components(clique(n)).components == (tuple(range(n)),)

    @pytest.mark.parametrize("paired", [False, True])
    def test_stars_with_the_hub_first_and_last(self, paired):
        for g in (star(9, paired), relabel(star(9, paired), [*range(1, 10), 0])):
            self.check(g)

    def test_disconnected_graphs(self):
        rng = random.Random(5)
        for _ in range(20):
            parts = [clique(rng.randint(3, 6)), star(rng.randint(2, 7), rng.random() < 0.5),
                     bipartite(2, rng.randint(1, 4)), gnp(rng.randint(2, 15), 0.3, rng),
                     block_graph(rng.randint(2, 6), 10, within=6, cross=2, rng=rng)]
            rng.shuffle(parts)
            g = disjoint_union(*parts)
            perm = list(range(g.node_count))
            rng.shuffle(perm)
            g = relabel(g, perm)
            self.check(g)
            assert motif_components(g).component_count >= 2

    def test_each_edge_is_tested_from_its_higher_ranked_end(self):
        # testing an edge from its lower-ranked end, a leaf, scans the hub's
        # row once per leaf: quadratic in the leaves, 28 s on a 2-CPU
        # machine (Python 3.11), where testing from the hub's side, which
        # builds the hub's set once, took 0.2 s
        leaves = 100_000
        g = star(leaves, paired=True)
        t0 = time.perf_counter()
        cs = motif_components(g)
        seconds = time.perf_counter() - t0
        assert cs.components == (tuple(range(leaves + 1)),) and not cs.isolated
        assert seconds < 5.0


@settings(max_examples=60, derandomize=True)
@given(st.integers(1, 40), st.floats(0.0, 0.5), st.integers(0, 2**31))
def test_both_finders_return_tuples_in_increasing_order(n, p, seed):
    g = gnp(n, p, random.Random(seed))
    for cs in (connected_components(g), motif_components(g)):
        assert type(cs.components) is tuple
        for ids in (*cs.components, cs.isolated):
            assert type(ids) is tuple
            assert all(type(u) is int for u in ids)
            assert all(a < b for a, b in zip(ids, ids[1:]))


class TestFragmentationReport:
    @settings(max_examples=80, derandomize=True)
    @given(st.integers(1, 40), st.floats(0.0, 0.5), st.integers(0, 2**31))
    def test_counted_from_the_roots(self, n, p, seed):
        # the components op's report, from one root per node, against the
        # report of the built hypergraph's split
        g = gnp(n, p, random.Random(seed))
        assert roots_report(g) == built_hypergraph_report(g)

    def test_of_an_empty_split(self):
        assert fragmentation_report([]) == {
            "node_count": 0, "component_count": 0, "component_size_histogram": {},
            "largest_component_size": 0, "isolated_count": 0, "isolated_fraction": 0.0}

    def test_connected_k4(self):
        g = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        rep = built_hypergraph_report(g)
        assert rep["component_count"] == 1
        assert rep["isolated_count"] == 0
        assert rep["largest_component_size"] == 4

    def test_triangle_with_pendant(self):
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        rep = built_hypergraph_report(g)
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
        assert built_hypergraph_report(relabel(g, perm)) == built_hypergraph_report(g)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(1, 40), st.floats(0.0, 0.5), st.integers(0, 2**31))
    def test_counts_every_node_of_the_graph(self, n, p, seed):
        # the components and the isolated nodes partition the node set, so
        # the report needs no graph to count it
        g = gnp(n, p, random.Random(seed))
        rep = built_hypergraph_report(g)
        assert rep["node_count"] == g.node_count
        assert rep["largest_component_size"] == max(
            [len(c) for c in motif_components(g).components], default=0)
