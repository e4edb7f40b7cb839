import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmot.cli import evaluate
from edmot.components import connected_components, motif_components
from edmot.graph import Graph, build_motif_adjacency, parse_edge_list, write_edge_list
from edmot.partition import Partition, louvain, louvain_with_history, modularity
from edmot.pipeline import (METHODS, PipelineError, clique_edge_set, detect_communities,
                            partition_components_to_modules, rewire_network)
from util import (best_partition_bruteforce, block_graph, communities_of, component_cuts,
                  drawn_modules, explicit_rewired_louvain, gnp, has_edge,
                  weighted_block_graph)

SEVEN_NODE = Graph.from_pairs(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                                  (2, 3), (5, 6)])
STAR5 = Graph.from_pairs(6, [(0, i) for i in range(1, 6)])


def two_k4s():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    pairs += [(u + 4, v + 4) for u, v in pairs[:6]]
    return Graph.from_pairs(8, pairs)


class TestModules:
    def test_single_triangle_component_is_one_module(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        h = build_motif_adjacency(g)
        topk = list(connected_components(h).components[:1])
        assert partition_components_to_modules(component_cuts(h, topk)) == [(0, 1, 2)]

    def test_two_k4_components_give_two_modules(self):
        h = build_motif_adjacency(two_k4s())
        cuts = component_cuts(h, connected_components(h).components[:2])
        modules = partition_components_to_modules(cuts)
        assert sorted(modules, key=min) == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert cuts == []  # each subgraph is dropped once its modules are read

    def test_empty_topk_gives_no_modules(self):
        h = build_motif_adjacency(STAR5)
        assert partition_components_to_modules(component_cuts(h, [])) == []

    def test_modules_disjoint_and_inside_their_component(self):
        rng = random.Random(5)
        g = gnp(30, 0.2, rng)
        h = build_motif_adjacency(g)
        cs = connected_components(h)
        topk = list(cs.components[:3])
        modules = partition_components_to_modules(component_cuts(h, topk))
        seen: set[int] = set()
        for mod in modules:
            assert isinstance(mod, tuple) and list(mod) == sorted(set(mod))
            assert not (seen & set(mod))
            seen.update(mod)
            assert any(set(mod) <= set(comp) for comp in topk)

    def test_partitioner_failure_names_component(self):
        def broken(g, seed):
            raise RuntimeError("boom")

        h = build_motif_adjacency(two_k4s())
        cuts = component_cuts(h, connected_components(h).components[:2])
        with pytest.raises(PipelineError, match="component 0.*boom"):
            partition_components_to_modules(cuts, broken)

    def test_partial_assignment_rejected(self):
        def partial(g, seed):
            return Partition.from_labels([0] * (g.node_count - 1))

        h = build_motif_adjacency(two_k4s())
        cuts = component_cuts(h, connected_components(h).components[:1])
        with pytest.raises(PipelineError, match="contract on component 0"):
            partition_components_to_modules(cuts, partial)


class TestCliqueEdges:
    def test_triangle_module(self):
        assert clique_edge_set([{0, 1, 2}]) == {(0, 1), (0, 2), (1, 2)}

    def test_pair_module(self):
        assert clique_edge_set([{4, 7}]) == {(4, 7)}

    def test_binomial_count(self):
        pairs = clique_edge_set([{0, 1}, {2, 3, 4}])
        assert len(pairs) == 1 + 3
        assert pairs == {(0, 1), (2, 3), (2, 4), (3, 4)}

    def test_singleton_modules_add_nothing(self):
        assert clique_edge_set([{3}]) == set()

    def test_empty(self):
        assert clique_edge_set([]) == set()


class TestRewire:
    def test_union_with_existing_clique_is_identity(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        assert rewire_network(g, {(0, 1), (0, 2), (1, 2)}) == g

    def test_path_plus_closing_edge_is_triangle(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2)])
        rewired = rewire_network(g, {(0, 2)})
        assert set(rewired.edge_pairs()) == {(0, 1), (0, 2), (1, 2)}

    def test_out_of_range_endpoint_rejected(self):
        g = Graph.from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            rewire_network(g, {(0, 7)})

    def test_weights_reset_to_one(self):
        g = Graph(3, [(0, 1, 9.0)])
        rewired = rewire_network(g, {(1, 2)})
        assert all(w == 1.0 for _, _, w in rewired.edges())

    def test_reversed_copy_of_an_edge_rejected(self):
        # pairs must be canonical (u < v), as clique_edge_set emits them
        g = Graph.from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="duplicate edge between 0 and 1"):
            rewire_network(g, {(1, 0)})

    def test_peak_memory_bounded_by_result(self):
        # 5 modules of 200 nodes: 99,500 clique pairs on a 1,000-node path
        g = Graph.from_pairs(1000, [(u, u + 1) for u in range(999)])
        pairs = clique_edge_set([set(range(b, b + 200)) for b in range(0, 1000, 200)])
        assert len(pairs) == 99_500
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rewired = rewire_network(g, pairs)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rewired.edge_count == 99_504
        # the union is built once, from the pairs as given: no copy of each pair
        assert peak - base < 2 * (current - base)

    @settings(max_examples=60)
    @given(st.integers(0, 2**31), st.integers(3, 15))
    def test_matches_set_union_oracle(self, seed, n):
        rng = random.Random(seed)
        g = gnp(n, 0.3, rng)
        extra = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        extra = {(min(u, v), max(u, v)) for u, v in extra if u != v}
        rewired = rewire_network(g, extra)
        assert set(rewired.edge_pairs()) == set(g.edge_pairs()) | extra
        assert rewired.node_count == g.node_count


EDMOT_STAGES = ["motif_adjacency", "components", "modules", "final_partition"]


class TestRunPipeline:
    def test_stage_names(self):
        # a triangle-free graph has no components but runs the same stages
        for g in (SEVEN_NODE, STAR5):
            _, trace = detect_communities(g, "edmot", k=1)
            assert list(trace.stage_seconds) == EDMOT_STAGES

    def test_seven_node_walkthrough(self):
        final, trace = detect_communities(SEVEN_NODE, "edmot", k=1)
        assert trace.component_count == 2
        assert trace.isolated_count == 1
        assert trace.module_count == 1
        assert trace.clique_edge_count == 3
        assert trace.rewired_edge_count == SEVEN_NODE.edge_count
        assert communities_of(final) == {frozenset({0, 1, 2}), frozenset({3, 4, 5, 6})}
        # the detected split is the exhaustive modularity optimum on the
        # (here unchanged) rewired network
        _, best_labels = best_partition_bruteforce(SEVEN_NODE)
        assert communities_of(Partition(best_labels)) == communities_of(final)

    def test_triangle_free_degrades_to_plain_partitioner(self):
        final, trace = detect_communities(STAR5, "edmot", k=5, seed=3)
        assert trace.module_count == 0
        assert trace.clique_edge_count == 0
        assert final == louvain(STAR5, 3)

    def test_weighted_triangle_free_partitions_unit_weights(self):
        # no modules is not the plain run: the rewired network sets every
        # weight to 1, and on this ring the weights decide the partition
        ring = [(i, (i + 1) % 8) for i in range(8)]
        g = Graph(8, ((u, v, 5.0 if u % 2 == 0 else 1.0) for u, v in ring))
        unit = Graph.from_pairs(8, [(min(e), max(e)) for e in ring])
        final, trace = detect_communities(g, "edmot", k=1, seed=0)
        assert trace.modules == [] and trace.clique_edge_count == 0
        assert trace.rewired_edge_count == g.edge_count
        assert final == louvain(unit, 0) == louvain(g, 0, []) != louvain(g, 0)
        report = evaluate("ring", "EdMot-Louvain", final, g, trace=trace)
        assert report["modularity_rewired"] == modularity(unit, final)
        assert report["modularity_original"] == modularity(g, final)

    def test_superset_clique_and_node_preservation(self):
        for seed in range(8):
            g = gnp(24, 0.18, random.Random(seed))
            if g.edge_count == 0:
                continue
            h = build_motif_adjacency(g)
            cs = connected_components(h)
            topk = list(cs.components[:2])
            modules = partition_components_to_modules(component_cuts(h, topk), louvain, seed)
            rewired = rewire_network(g, clique_edge_set(modules))
            assert set(g.edge_pairs()) <= set(rewired.edge_pairs())
            assert rewired.node_count == g.node_count
            for mod in modules:
                for u in sorted(mod):
                    for v in sorted(mod):
                        if u < v:
                            assert has_edge(rewired, u, v)

    def test_deterministic(self):
        g = gnp(26, 0.2, random.Random(11))
        p1, t1 = detect_communities(g, "edmot", k=2, seed=4)
        p2, t2 = detect_communities(g, "edmot", k=2, seed=4)
        assert p1 == p2
        assert t1.to_dict().keys() == t2.to_dict().keys()
        for key in ("component_count", "isolated_count", "module_count",
                    "clique_edge_count", "rewired_edge_count"):
            assert getattr(t1, key) == getattr(t2, key)

    def test_k_at_or_above_component_count_changes_nothing(self):
        # K beyond the component count selects the same components, so the
        # whole run repeats: bench relies on this to stop a K sweep early
        for seed in range(4):
            rng = random.Random(seed)
            sizes = [rng.randint(5, 8) for _ in range(4)]
            starts = [sum(sizes[:i]) for i in range(len(sizes))]
            pairs = {(s + a, s + b) for s, size in zip(starts, sizes)
                     for a, b in combinations(range(size), 2) if rng.random() < 0.6}
            pairs.update((s, s + size) for s, size in zip(starts, sizes[:-1]))
            g = Graph.from_pairs(sum(sizes), sorted(pairs))
            count = connected_components(build_motif_adjacency(g)).component_count
            assert count >= 3
            runs = []
            for k in range(count, count + 4):
                part, trace = detect_communities(g, "edmot", k=k, seed=seed)
                counts = trace.to_dict()
                del counts["stage_seconds"]
                runs.append((part, counts))
            assert runs == [runs[0]] * len(runs)

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_graph_rejected(self, method):
        # one check, before any stage, for every method
        with pytest.raises(ValueError, match="cannot run the pipeline on an empty graph"):
            detect_communities(Graph(0, []), method, 1)

    def test_stage_errors_are_tagged(self):
        def broken(g, seed):
            raise RuntimeError("nope")

        with pytest.raises(PipelineError, match="stage 'modules'"):
            detect_communities(SEVEN_NODE, "edmot", 1, partitioner=broken)
        fractional = Graph(3, [(0, 1, 0.5), (1, 2, 1.0)])
        with pytest.raises(PipelineError) as info:
            detect_communities(fractional, "plain")
        assert str(info.value) == ("stage 'final_partition': Louvain takes only integer "
                                   "edge weights whose doubled total is below 2**53")

    def test_final_partial_assignment_rejected(self):
        def partial(g, seed):
            return Partition.from_labels([0] * (g.node_count - 1))

        match = "stage 'final_partition': partitioner violated the contract: assigned 5 of 6"
        with pytest.raises(PipelineError, match=match):
            # no modules: only the final call
            detect_communities(STAR5, "edmot", 1, partitioner=partial)
        match = match.replace("5 of 6", "6 of 7")
        with pytest.raises(PipelineError, match=match):
            detect_communities(SEVEN_NODE, "motif", partitioner=partial)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            detect_communities(SEVEN_NODE, "edmot", 0)
        with pytest.raises(ValueError, match="at least 1"):
            detect_communities(STAR5, "edmot", 0)  # validated even when no components exist


class TestMotifBaseline:
    def test_isolated_nodes_become_singletons(self):
        part, trace = detect_communities(SEVEN_NODE, "motif")
        assert trace.component_count == 2
        assert trace.isolated_count == 1
        assert {6} in part.communities()

    def test_triangle_free_graph_is_all_singletons(self):
        part, trace = detect_communities(STAR5, "motif")
        assert part.community_count == STAR5.node_count
        assert trace.component_count == 0

    def test_covers_all_nodes(self):
        g = gnp(20, 0.25, random.Random(2))
        part, _ = detect_communities(g, "motif")
        assert len(part) == g.node_count


class TestDispatch:
    def test_plain(self):
        part, trace = detect_communities(SEVEN_NODE, "plain")
        assert part == louvain(SEVEN_NODE, 0)
        assert trace.original_edge_count == SEVEN_NODE.edge_count
        assert list(trace.stage_seconds) == ["final_partition"]
        assert trace.component_count == 0 and trace.modules is None

    def test_plain_partial_assignment_rejected(self):
        def partial(g, seed):
            return Partition.from_labels([0] * (g.node_count - 1))

        match = "stage 'final_partition': partitioner violated the contract: assigned 6 of 7"
        with pytest.raises(PipelineError, match=match):
            detect_communities(SEVEN_NODE, "plain", partitioner=partial)

    def test_motif(self):
        part, trace = detect_communities(SEVEN_NODE, "motif")
        assert trace is not None and trace.modules is None

    def test_edmot_returns_rewired(self):
        part, trace = detect_communities(SEVEN_NODE, "edmot")
        assert trace.modules == [(0, 1, 2)]
        assert "modules" not in trace.to_dict()
        rewired = rewire_network(SEVEN_NODE, clique_edge_set(trace.modules))
        assert rewired.node_count == SEVEN_NODE.node_count
        assert part == louvain(rewired, 0)

    def test_partitioner_errors_keep_their_text(self):
        def broken(g, seed):
            raise RuntimeError("nope")

        # only a per-component failure names the component
        for g, method, text in ((SEVEN_NODE, "plain", "stage 'final_partition': nope"),
                                (SEVEN_NODE, "motif", "stage 'final_partition': nope"),
                                (STAR5, "edmot", "stage 'final_partition': nope"),
                                (SEVEN_NODE, "edmot",
                                 "stage 'modules': partitioner failed on component 0: nope")):
            with pytest.raises(PipelineError) as err:
                detect_communities(g, method, partitioner=broken)
            assert str(err.value) == text

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            detect_communities(SEVEN_NODE, "best")


@st.composite
def clustered_graphs(draw):
    """Small graphs of dense clusters joined sparsely, so the hypergraph has
    several components and modules hold original edges; weighted half the time."""
    rng = random.Random(draw(st.integers(0, 2**31)))
    sizes = [rng.randint(3, 7) for _ in range(draw(st.integers(1, 4)))]
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    pairs = [(u, v) for u, v in combinations(range(n), 2)
             if rng.random() < (0.7 if block[u] == block[v] else 0.08)]
    if not pairs:
        pairs = [(0, 1)]
    weights = {"unit": lambda: 1.0, "integer": lambda: float(rng.randint(1, 5)),
               "fractional": lambda: rng.uniform(0.1, 3.0)}[draw(st.sampled_from(
                   ["unit", "integer", "fractional"]))]
    return Graph(n, ((u, v, weights()) for u, v in pairs))


class TestImplicitCliques:
    """The built-in Louvain on the module list against the explicit oracle:
    ``rewire_network`` and ``louvain_with_history`` on the built network."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(clustered_graphs(), st.integers(0, 4), st.data())
    def test_drawn_modules_match_explicit(self, g, seed, data):
        # modules of any size, singletons included, over any nodes
        rng = random.Random(data.draw(st.integers(0, 2**31)))
        modules = drawn_modules(rng, g.node_count)
        rewired, part, history = explicit_rewired_louvain(g, modules, seed)
        assert louvain_with_history(g, seed, modules) == (part, history)
        probe = Partition.from_labels(rng.randrange(3) for _ in range(g.node_count))
        assert modularity(g, probe, modules) == modularity(rewired, probe)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.integers(0, 4), st.sampled_from([(1, 8), (20, 80)]))
    def test_planted_blocks_match_explicit(self, graph_seed, seed, sizes):
        # modules are runs of consecutive nodes, so most lie inside one block,
        # as EdMot's do. Runs of up to 8 are small enough that some members
        # still move after the first sweep; runs of 20-80 span blocks of
        # 20-40, so as members join communities one by one a module's member
        # counts take many values, and its communities are scanned count by count
        rng = random.Random(graph_seed)
        g = weighted_block_graph(rng, "unit")
        modules, start = [], 0
        while start < g.node_count:
            size = rng.randint(*sizes)
            if rng.random() < 0.7:
                modules.append(set(range(start, min(start + size, g.node_count))))
            start += size
        _, part, history = explicit_rewired_louvain(g, modules, seed)
        assert louvain_with_history(g, seed, modules) == (part, history)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(clustered_graphs(), st.integers(0, 4), st.data())
    def test_run_edmot_matches_explicit(self, g, seed, data):
        count = connected_components(build_motif_adjacency(g)).component_count
        k = data.draw(st.integers(1, count + 2))  # up to past the component count
        part, trace = detect_communities(g, "edmot", k, seed=seed)
        explicit_part, explicit_trace = detect_communities(g, "edmot", k, seed,
                                                           lambda h, s: louvain(h, s))
        assert part == explicit_part
        assert trace.modules == explicit_trace.modules
        rewired, ref_part, ref_history = explicit_rewired_louvain(g, trace.modules, seed)
        assert louvain_with_history(g, seed, trace.modules) == (ref_part, ref_history)
        assert part == ref_part
        assert trace.clique_edge_count == len(clique_edge_set(trace.modules))
        assert trace.rewired_edge_count == rewired.edge_count
        report = evaluate("g", "EdMot-Louvain", part, g, trace=trace)
        assert report["modularity_rewired"] == modularity(rewired, part)


class TestSharedRows:
    def test_no_stage_mutates_the_parsed_rows(self):
        # the unweighted parse gives every node of one degree the same weight
        # row, so a write to one row would show in others and in later runs
        text = write_edge_list(block_graph(30, 10, within=6, cross=2, rng=random.Random(4)))
        g, _ = parse_edge_list(text)
        assert len({id(row) for row in g.edge_weights}) < g.node_count
        before = [list(row) for row in g.neighbors], [list(row) for row in g.edge_weights]
        for method in METHODS:
            part, trace = detect_communities(g, method, k=3, seed=1)
            modularity(g, part)
            modularity(g, part, trace.modules)
        connected_components(g)
        motif_components(g)
        assert (g.neighbors, g.edge_weights) == before
