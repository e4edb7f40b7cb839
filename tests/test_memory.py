"""Memory regression tests: what the parse holds at its peak, from a file
no more than from its decoded text, rows with no spare slots in every graph
the package builds, the `components` op, which builds no hypergraph and no
component tuples and so peaks in the parse, and holds no input bytes
through it, and what edmot's module and final partitions hold: neither holds
the hypergraph.

Each runs on a scaled-down form of the fragmented benchmark graph (blocks of
10 nodes, within-block degree 6, cross-block degree 2), built before any
tracemalloc tracing starts.
"""

import random
import sys
import tracemalloc
import weakref

import pytest

from edmot import cli, components, partition, pipeline
from edmot.cli import main
from edmot.components import connected_components
from edmot.graph import (_LINE_CHUNK, Graph, build_motif_adjacency, induced_subgraph,
                         largest_connected_component, parse_edge_list, write_edge_list)
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


def test_built_rows_hold_no_spare_slots():
    text = fragmented_text()
    g, _ = parse_edge_list(text)
    h = build_motif_adjacency(g)
    weighted = Graph(h.node_count, h.edges())
    module, _ = induced_subgraph(h, connected_components(h).components[0])
    # one more separate edge sends the largest component through induced_subgraph
    largest, keep = largest_connected_component(parse_edge_list(text + "x y\n")[0])
    assert len(keep) == g.node_count
    for graph in (g, weighted, h, module, largest):
        for row in graph.neighbors + graph.edge_weights:
            # a list grown by appends over-allocates; a slice is exact
            assert sys.getsizeof(row) == sys.getsizeof(row[:])


def parse_open_file(path):
    with open(path, "rb") as f:
        parse_edge_list(f)


def test_file_parse_peaks_with_the_parse_of_its_text(tmp_path):
    text = fragmented_text(1000)
    path = tmp_path / "edges.txt"
    path.write_text(text)
    # the text is decoded before tracing starts, so the file's parse may
    # hold only its reads beyond what the text's parse holds; decoding the
    # whole file first would add its bytes and its text, 0.37 MiB each
    assert traced_peak(lambda: parse_open_file(path)) < (
        traced_peak(lambda: parse_edge_list(text)) + 4 * _LINE_CHUNK)


def test_components_op_builds_no_hypergraph_and_peaks_in_the_parse(tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text(fragmented_text(1000))

    def kernel(g):
        raise AssertionError("a components op built the hypergraph")

    def component_set(**kwargs):
        raise AssertionError("a components op built its components as tuples")

    for namespace in (cli, pipeline):
        monkeypatch.setattr(namespace, "build_motif_adjacency", kernel)
    monkeypatch.setattr(components, "ComponentSet", component_set)
    codes = []
    parse = traced_peak(lambda: parse_open_file(path))
    op = traced_peak(lambda: codes.append(main(["components", "--input", str(path),
                                                "--output", str(tmp_path / "out.json")])))
    assert codes == [0]
    # the parse holds its reads, the tokens and the growing rows; after it,
    # the search keeps one list and one bytearray of one entry per node and
    # the report a count per component beside the input graph (holding the
    # hypergraph too put the op 24% above the parse)
    assert op < 1.05 * parse


def test_components_op_holds_no_input_bytes_through_the_parse(tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text(fragmented_text(1000))
    parse = cli.parse_edge_list

    def holding(source, **kwargs):
        # keeps its argument alive through the parse, as a caller's frame
        # does on Python 3.10 and as the benchmark's traced spans do
        return parse(source, **kwargs)

    monkeypatch.setattr(cli, "parse_edge_list", holding)
    argv = ["components", "--input", str(path), "--output", str(tmp_path / "out.json")]
    assert main(argv) == 0  # one-time allocations stay out of the measured op
    op = traced_peak(lambda: main(argv))
    base = traced_peak(lambda: parse_open_file(path))
    # the parse reads the file a chunk at a time; read whole and held
    # through the parse, its bytes would add 0.37 MiB beside a 2.5 MiB peak
    assert op - base < path.stat().st_size / 2


class Hypergraph(Graph):
    """A Graph that a weak reference can point to."""


def traced_hypergraph_run(monkeypatch, k: int) -> tuple[list[bool], list[bool]]:
    """An edmot run whose hypergraph is weakly referenced: whether it was
    alive at each module Louvain call, and at the final partition's."""
    g, _ = parse_edge_list(fragmented_text())
    hypergraphs = []

    def kernel(g):
        h = Hypergraph(g.node_count, build_motif_adjacency(g).edges())
        hypergraphs.append(weakref.ref(h))
        return h

    level_zero = partition._level_zero
    held: tuple[list[bool], list[bool]] = ([], [])

    def traced_level_zero(g, modules):
        # the module calls pass no modules; the final partition passes them
        held[modules is not None].append(hypergraphs[0]() is not None)
        return level_zero(g, modules)

    monkeypatch.setattr(pipeline, "build_motif_adjacency", kernel)
    monkeypatch.setattr(partition, "_level_zero", traced_level_zero)
    _, trace = pipeline.detect_communities(g, "edmot", k=k)
    assert trace.module_count > k
    return held


def test_final_partition_holds_no_hypergraph(monkeypatch):
    # the hypergraph and its components are freed once the modules are built
    assert traced_hypergraph_run(monkeypatch, 1)[1] == [False]


@pytest.mark.parametrize("k", [1, 3])
def test_module_partitions_hold_no_hypergraph(monkeypatch, k):
    # the top-k components are cut out of the hypergraph before the first
    # module call, so the module calls hold only the subgraphs
    assert traced_hypergraph_run(monkeypatch, k)[0] == [False] * k


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
