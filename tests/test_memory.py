"""Memory regression tests: what the parse holds at its peak, the one float
per weighted degree of the parsed graph and of the triangle hypergraph, the
`components` op, which builds no hypergraph and so peaks in the parse, and
what edmot's final partition holds.

Each runs on a scaled-down form of the fragmented benchmark graph (blocks of
10 nodes, within-block degree 6, cross-block degree 2), built before any
tracemalloc tracing starts.
"""

import random
import tracemalloc
import weakref

from edmot import cli, partition, pipeline
from edmot.cli import main
from edmot.graph import Graph, build_motif_adjacency, parse_edge_list, write_edge_list
from util import block_graph


def fragmented_text(blocks: int = 200) -> str:
    return write_edge_list(block_graph(blocks, 10, within=6, cross=2, rng=random.Random(2)))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_holds_no_list_of_every_line():
    text = fragmented_text()
    comments = 100_000
    padded = text + "# one more line\n" * comments
    extra = (traced_peak(lambda: parse_edge_list(padded))
             - traced_peak(lambda: parse_edge_list(text)))
    # a list of every line would hold at least one 8-byte pointer per line
    assert extra < 8 * comments


def test_parse_holds_no_list_of_edge_keys():
    text = write_edge_list(block_graph(2000, 10, within=6, cross=2, rng=random.Random(2)))
    tracemalloc.start()
    try:
        g, _ = parse_edge_list(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a list of u << 32 | v edge keys alone holds 40 bytes per edge, an
    # 8-byte pointer and a 32-byte int
    assert peak - kept < 16 * g.edge_count


def test_weighted_degrees_share_one_float_per_value():
    g, _ = parse_edge_list(fragmented_text())
    for graph in (g, build_motif_adjacency(g)):
        degrees = graph.weighted_degrees
        assert len({id(d) for d in degrees}) == len(set(degrees)) > 1


def test_components_op_builds_no_hypergraph_and_peaks_in_the_parse(tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text(fragmented_text(1000))

    def kernel(g):
        raise AssertionError("a components op built the hypergraph")

    for namespace in (cli, pipeline):
        monkeypatch.setattr(namespace, "build_motif_adjacency", kernel)
    codes = []
    parse = traced_peak(lambda: parse_edge_list(path.read_bytes()))
    op = traced_peak(lambda: codes.append(main(["components", "--input", str(path),
                                                "--output", str(tmp_path / "out.json")])))
    assert codes == [0]
    # the parse holds the text, its tokens and the growing rows; after it,
    # the search keeps only a few lists of one entry per node beside the
    # input graph (holding the hypergraph too put the op 24% above the parse)
    assert op < 1.05 * parse


def test_final_partition_holds_no_hypergraph(monkeypatch):
    g, _ = parse_edge_list(fragmented_text())

    class Hypergraph(Graph):
        """A Graph that a weak reference can point to."""

    hypergraphs = []

    def kernel(g):
        h = Hypergraph(g.node_count, build_motif_adjacency(g).edges())
        hypergraphs.append(weakref.ref(h))
        return h

    level_zero = partition._level_zero
    held = []

    def final_level_zero(g, modules):
        if modules is not None:  # the final partition; the modules' have none
            held.append(hypergraphs[0]() is not None)
        return level_zero(g, modules)

    monkeypatch.setattr(pipeline, "build_motif_adjacency", kernel)
    monkeypatch.setattr(partition, "_level_zero", final_level_zero)
    _, trace = pipeline.detect_communities(g, "edmot", k=1)
    assert trace.module_count > 1
    # the hypergraph and its components are freed once the modules are built
    assert held == [False]


def test_rewired_unit_weights_share_one_list_per_row_length():
    g, _ = parse_edge_list(fragmented_text())
    modules = [set(range(b, b + 4)) for b in range(0, g.node_count, 10)]
    net = partition._level_zero(g, modules)
    lists = {}
    for nbs, wts in net.adj:
        assert wts == [1.0] * len(nbs)
        lists.setdefault(len(wts), set()).add(id(wts))
    assert len(lists) > 1
    assert all(len(ids) == 1 for ids in lists.values())
