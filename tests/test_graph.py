import codecs
import contextlib
import gc
import io
import math
import random
import sys
import time
from itertools import combinations, takewhile
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edmot import graph as graph_module
from edmot.components import connected_components
from edmot.graph import (_LINE_CHUNK, EdgeListError, Graph, _pieces, build_motif_adjacency,
                         graph_stats, induced_subgraph, largest_connected_component,
                         parse_edge_list, parse_label_file, write_edge_list)
from util import (assert_identical, block_graph, degree, gnp, graph_reference,
                  induced_subgraph_reference, motif_adjacency_reference,
                  parse_edge_list_reference, parse_label_file_reference,
                  parse_unweighted_per_line, read_weighted_edges, weight)


@st.composite
def small_graphs(draw, max_nodes=10, weighted=False):
    n = draw(st.integers(2, max_nodes))
    all_pairs = list(combinations(range(n), 2))
    pairs = sorted(draw(st.sets(st.sampled_from(all_pairs))))
    if weighted:
        weights = draw(st.lists(st.integers(1, 9), min_size=len(pairs),
                                max_size=len(pairs)))
        return Graph(n, ((u, v, float(w)) for (u, v), w in zip(pairs, weights)))
    return Graph.from_pairs(n, pairs)


class TestParse:
    def test_duplicate_unweighted_edges_collapse(self):
        g, lm = parse_edge_list("1 2\n2 3\n1 2\n")
        assert g.node_count == 3
        assert list(g.edges()) == [(0, 1, 1.0), (1, 2, 1.0)]
        assert lm.labels == ["1", "2", "3"]

    def test_self_loop_dropped_but_node_kept(self):
        g, lm = parse_edge_list("a a\n a b\n")
        assert g.node_count == 2
        assert list(g.edges()) == [(0, 1, 1.0)]
        assert lm.labels == ["a", "b"]

    def test_directed_arcs_symmetrized(self):
        g, _ = parse_edge_list("a b\nb a\nb c\n")
        assert g.edge_count == 2

    def test_comments_and_blank_lines_skipped(self):
        g, _ = parse_edge_list("# header\n\n% also a comment\n0 1\n")
        assert g.edge_count == 1

    def test_leading_byte_order_mark_ignored(self):
        for text in ("\ufeffa b\nb c\nc a\n", "\ufeff# c\n% d\na b\nb c\nc a\n"):
            for source in (text, text.encode("utf-8")):
                g, lm = parse_edge_list(source)
                assert lm.labels == ["a", "b", "c"]
                assert list(g.edges()) == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("0 1\n0 1 7\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListError, match="no edges"):
            parse_edge_list("")
        with pytest.raises(EdgeListError, match="no edges"):
            parse_edge_list("# nothing here\n")

    def test_parse_accepts_bytes_and_streams(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        with open(path, "rb") as fh:
            g1, lm1 = parse_edge_list(fh)
        g2, lm2 = parse_edge_list(path.read_bytes())
        assert g1 == g2 and lm1 == lm2

    def test_deterministic_for_identical_bytes(self):
        text = "b a\nc a\nb c\n"
        g1, lm1 = parse_edge_list(text)
        g2, lm2 = parse_edge_list(text)
        assert g1 == g2
        assert lm1.labels == lm2.labels

    @given(small_graphs(weighted=True), st.booleans())
    def test_roundtrip_preserves_edges_and_weights(self, g, weighted):
        # The format cannot carry isolated nodes and re-parsing may permute
        # dense ids, so the round-trip invariant lives in token space: the
        # same weighted edge set keyed by external labels. The parser reads
        # no weights, so the weighted form is read back column by column.
        text = write_edge_list(g, weighted=weighted)
        if not text:
            return

        def token_edges(graph, name):
            return {frozenset((name(u), name(v))): w for u, v, w in graph.edges()}

        original = token_edges(g, str)
        if weighted:
            assert read_weighted_edges(text) == original
            return
        g2, lm = parse_edge_list(text)
        assert token_edges(g2, lm.labels.__getitem__) == dict.fromkeys(original, 1.0)
        assert g2.node_count == len({t for pair in original for t in pair})

    def test_write_puts_a_comment_like_token_second(self):
        g = Graph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        assert write_edge_list(g, ["#x", "a", "b"]) == "a #x\nb #x\na b\n"
        with pytest.raises(ValueError, match="both tokens start a comment"):
            write_edge_list(g, ["#x", "%y", "a"])


def outcome(build, *args, **kwargs):
    """What ``build`` returns, or the type and message of the ValueError it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "f", "17", "300", "x"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text with comments, blank lines, self-loops, duplicate
    lines, mixed separators and line endings, and in one text of five a
    malformed line, so the parser's every branch runs."""
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["loop", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "%", "  # a b", "#a b c d"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            u = draw(TOKENS)
            v = u if kind == "loop" else draw(TOKENS)
            sep = draw(st.sampled_from([" ", "\t", "  "]))
            lines.append(draw(st.sampled_from(["", " "])) + sep.join([u, v]))
        if lines and draw(st.booleans()) and lines[-1] == lines[-1].strip():
            lines.append(lines[-1])  # a duplicate line
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["a", "a b c d", "a b -1", "a b nan", "a b w"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestParseOracle:
    """``parse_edge_list`` against the tuple-sorting parser it replaced."""

    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_equals_reference(self, data):
        text = data.draw(edge_list_texts())
        got = outcome(parse_edge_list, text)
        ref = outcome(parse_edge_list_reference, text)
        if isinstance(ref, str):
            assert got == ref
        else:
            assert not isinstance(got, str), got
            assert_identical(got[0], ref[0])
            assert got[1] == ref[1]

    @pytest.mark.parametrize("encoded", [False, True])
    def test_benchmark_scale_equals_reference(self, encoded):
        # the shape of the fragmented benchmark graph, so rows run long and
        # many keys repeat: lines shuffled, some reversed, a fifth written
        # twice; read as text, or as the benchmark reads it, a file of bytes
        rng = random.Random(5)
        g = block_graph(500, 10, within=6, cross=2, rng=rng)
        tokens = [f"v{i}" for i in range(g.node_count)]
        rng.shuffle(tokens)
        lines = write_edge_list(g, tokens).splitlines()
        lines += rng.sample(lines, len(lines) // 5)
        rng.shuffle(lines)
        lines = [" ".join([b, a]) if rng.random() < 0.5 else line
                 for line in lines for a, b in [line.split()]]
        text = "\n".join(lines)
        got, labels = parse_edge_list(io.BytesIO(text.encode()) if encoded else text)
        ref, ref_labels = parse_edge_list_reference(text)
        assert got.edge_count == g.edge_count
        assert_identical(got, ref)
        assert labels == ref_labels
        assert_identical(build_motif_adjacency(got), motif_adjacency_reference(ref))

    def test_unweighted_rows_share_one_weight_object(self):
        text = "".join(f"n{i} n{(i * 7 + 1) % 400}\n" for i in range(400))
        g, _ = parse_edge_list(text + text)
        assert g.total_weight == g.edge_count == 400
        assert len({id(w) for row in g.edge_weights for w in row}) == 1

    @pytest.mark.parametrize("per_line", [False, True])
    def test_rows_share_the_id_ints(self, per_line):
        # ids above 256 are not cached by the interpreter; each must be one
        # object however many rows list it, on either path through a chunk:
        # a comment line sends the first chunk line by line
        text = "# c\n" * per_line + "".join(f"n{i} n{(i * 7 + 1) % 400}\n" for i in range(400))
        g, _ = parse_edge_list(text)
        assert g.node_count == 400
        assert len({id(v) for row in g.neighbors for v in row}) == g.node_count

    @settings(max_examples=60, derandomize=True)
    @given(small_graphs(max_nodes=12), st.randoms(use_true_random=False))
    def test_line_order_does_not_change_the_graph(self, g, rnd):
        lines = [f"n{u} n{v}" for u, v in g.edge_pairs()]
        if not lines:
            return
        shuffled = lines[:]
        rnd.shuffle(shuffled)
        g1, lm1 = parse_edge_list("\n".join(lines))
        g2, lm2 = parse_edge_list("\n".join(shuffled))

        def token_edges(graph, lm):
            return {frozenset((lm.labels[u], lm.labels[v])) for u, v in graph.edge_pairs()}

        assert token_edges(g1, lm1) == token_edges(g2, lm2)
        assert sorted(lm1.labels) == sorted(lm2.labels)


# every line break of str.splitlines; "\r\n" is one break of two characters
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def lines_of(source, chunk):
    """The lines of ``source``'s pieces, read ``chunk`` at a time."""
    with patch.object(graph_module, "_LINE_CHUNK", chunk):
        return [line for piece in _pieces(source) for line in piece.splitlines()]


class TestLines:
    """The parse's reader, from text and from bytes, against ``str.splitlines``."""

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.tuples(st.text("ab #", max_size=3), st.sampled_from(LINE_BREAKS)),
                    max_size=12),
           st.text("ab", max_size=2), st.integers(1, 6))
    def test_equals_splitlines(self, lines, tail, chunk):
        text = "".join(a + b for a, b in lines) + tail
        assert lines_of(text, chunk) == text.splitlines()
        assert lines_of(text.encode("utf-8"), chunk) == text.splitlines()

    @pytest.mark.parametrize("chunk", range(1, 6))
    @pytest.mark.parametrize("offset", range(6))
    def test_crlf_at_the_cut(self, chunk, offset):
        # the "\r" lies before the first place a cut may go, its "\n" after
        text = "a" * offset + "\r\n" + "\r\n".join("bc") + "\r\n\r"
        assert lines_of(text, chunk) == text.splitlines()
        assert lines_of(text.encode("utf-8"), chunk) == text.splitlines()

    def test_text_without_newline_is_one_chunk(self):
        text = "a b\rb c\x85c a\u2028"
        assert lines_of(text, 1) == text.splitlines() == ["a b", "b c", "c a"]
        assert len(list(_pieces(text))) == len(list(_pieces(text.encode("utf-8")))) == 1

    def test_benchmark_scale_text_spans_several_chunks(self):
        # the graph and tokens of TestParseOracle.test_benchmark_scale_equals_reference,
        # whose text holds these lines and a fifth more, so it is cut several times
        g = block_graph(500, 10, within=6, cross=2, rng=random.Random(5))
        text = write_edge_list(g, [f"v{i}" for i in range(g.node_count)])
        assert len(text) > 3 * _LINE_CHUNK


# whitespace to str.split that ends no line
SEPARATORS = (" ", "\t", "\x1f", "\u3000")
# a comment prefix starts a line only as its first token
CHUNK_TOKENS = st.sampled_from(["a", "b", "c", "d", "17", "300", "x#", "y%z", "#c", "%d"])


@st.composite
def unweighted_texts(draw, tokens=CHUNK_TOKENS):
    """Unweighted edge-list text whose lines end in any line break and whose
    ``tokens`` are split by any separator: comment lines, tokens that hold or
    start with a comment prefix, blank lines, self-loops, repeated lines and,
    in one text of three, a line of 1 or 3 tokens."""
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["loop", "repeat", "comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["#", "% a b", "#a b c", "\u3000# a"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\x1f", "\u3000\t"]))
        elif kind == "repeat" and lines:
            line = draw(st.sampled_from(lines))
        else:
            u = draw(tokens)
            v = u if kind == "loop" else draw(tokens)
            line = (draw(st.sampled_from(["", *SEPARATORS])) + u
                    + draw(st.sampled_from(SEPARATORS)) + v
                    + draw(st.sampled_from(["", *SEPARATORS])))
        lines.append(line)
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["a", "a b c"])))
    ends = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines]
    text = "".join(map(str.__add__, lines, ends))
    return text if draw(st.booleans()) else text.rstrip("".join(LINE_BREAKS))


class TestChunkedParse:
    """The unweighted parse, a chunk at a time, against its per-line form."""

    @settings(max_examples=300, derandomize=True)
    @given(unweighted_texts(), st.one_of(st.integers(1, 40), st.just(_LINE_CHUNK)))
    @example("a b\n% c\nb c\n", 1)  # a comment line between two fast pieces
    @example("a b\rb c\n\nc d\x85d a\n", 4)  # blank line in a piece of several lines
    @example("a b\r\nb c\r\nc\r\n", 2)  # the error's line number after two pieces
    @example("a b c\nd\n", _LINE_CHUNK)  # two tokens a line, but not on each line
    def test_equals_per_line_parse(self, text, chunk):
        with patch.object(graph_module, "_LINE_CHUNK", chunk):
            got = outcome(parse_edge_list, text)
        ref = outcome(parse_unweighted_per_line, text)
        if isinstance(ref, str):
            assert got == ref
            return
        assert not isinstance(got, str), got
        assert_identical(got[0], ref[0])
        assert got[1] == ref[1]
        assert list(map(sys.getsizeof, got[0].neighbors)) == list(
            map(sys.getsizeof, ref[0].neighbors))

    @pytest.mark.parametrize("fast", [False, True])
    def test_parse_leaves_no_garbage_cycle(self, fast):
        # a cyclic id map would outlive the parse, with every token, until
        # the collector ran; a comment line sends the first chunk line by
        # line, and without it every chunk is read at once
        text = "# c\n" * (not fast) + "".join(f"n{i} n{(i * 7 + 1) % 900}\n"
                                              for i in range(900))
        assert len(text) > 2 * _LINE_CHUNK
        gc.collect()
        gc.disable()
        try:
            parse_edge_list(text)
            assert gc.collect() == 0
        finally:
            gc.enable()


# tokens of one to four bytes a character, so characters straddle reads
WIDE_TOKENS = st.sampled_from(["a", "b", "\u00e9", "\u0436\u0436", "\u4e2d\u6587",
                               "\U0001f600", "x#", "#\u00e9", "\u00fc%"])
# a byte that is never UTF-8, a lone continuation byte, and a lead byte
# whose continuation never comes
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3"])


@st.composite
def encoded_texts(draw):
    """UTF-8 edge-list bytes of one- to four-byte characters, with a leading
    byte-order mark in half of them and, in one of three, one inserted byte
    that makes them invalid UTF-8."""
    data = draw(unweighted_texts(WIDE_TOKENS)).encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return data


def decoded_outcome(data: bytes):
    """What parsing ``data`` must give: the per-line parse of its text; or,
    for bytes that are not UTF-8, the first fault in the input, which is a
    bad line that ends before the line holding the first invalid byte, or
    else that byte, worded as decoding the whole input words it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        fault = f"EdgeListError: input is not valid UTF-8: {exc}"
    else:
        return outcome(parse_unweighted_per_line, text.removeprefix("\ufeff"))
    lines = data.decode("utf-8", "replace").removeprefix("\ufeff").splitlines(True)
    before = outcome(parse_unweighted_per_line,
                     "".join(takewhile(lambda line: "\ufffd" not in line, lines)))
    return before if isinstance(before, str) and "no edges" not in before else fault


class TestStreamedParse:
    """The parse of bytes and of an open file, which are read a few bytes at
    a time through an incremental decoder, against the per-line parse of the
    whole decoded text, and the parse of that text as a ``str``."""

    @settings(max_examples=300, derandomize=True)
    @given(encoded_texts(), st.one_of(st.integers(1, 40), st.just(_LINE_CHUNK)))
    @example("\u00e9 \U0001f600\n\u4e2d \u00e9\n".encode(), 1)  # characters cut by every read
    @example(codecs.BOM_UTF8 + b"a b\nb c\n", 2)  # the mark itself cut by a read
    @example(b"a b\r\nb c\r\nc\r\n", 4)  # each "\r\n" cut by a read
    @example(b"a b\rb c\rc a\r", 3)  # no "\n" at all
    @example(b"a b\nb c\xff\n", 5)  # one invalid byte, reported at its own position
    @example(b"a b\nb \xe2\x82", 3)  # a character cut short by the end of the input
    # two faults, a bad line and then an invalid byte: the line is reported,
    # as it is read before the byte; and the other way round, the byte
    @example(b"a b c\nd\xff e\n", _LINE_CHUNK)
    @example(b"a\xff b\na b c\n", _LINE_CHUNK)
    @example(b"a b c\rd\xff e\n", 2)  # a bad line that ends in "\r"
    def test_equals_decoded_parse(self, data, chunk):
        ref = decoded_outcome(data)
        sources = [data, io.BytesIO(data)]
        with contextlib.suppress(UnicodeDecodeError):
            sources.append(data.decode("utf-8"))
        for source in sources:
            with patch.object(graph_module, "_LINE_CHUNK", chunk):
                got = outcome(parse_edge_list, source)
            if isinstance(ref, str):
                assert got == ref
                continue
            assert not isinstance(got, str), got
            assert_identical(got[0], ref[0])
            assert got[1] == ref[1]
            assert list(map(sys.getsizeof, got[0].neighbors)) == list(
                map(sys.getsizeof, ref[0].neighbors))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, _LINE_CHUNK])
    def test_weighted_and_label_files_read_alike(self, chunk):
        # a weight column makes a line of three fields, which every source
        # reports alike; without it, every source reads the same graph
        weighted = "\ufeff\u00e9 \U0001f600 2.5\r\n# c\r\u4e2d \u00e9 1\n\U0001f600 \u4e2d 3\n"
        edges = "\ufeff\u00e9 \U0001f600\r\n# c\r\u4e2d \u00e9\n\U0001f600 \u4e2d\n"
        labels = "\ufeff\u00e9 x\r\n\U0001f600 \u4e2d\r\u4e2d \u00e9\n"
        fault = f"EdgeListError: line 1: expected 2 fields, got 3: {weighted[1:8]!r}"
        with patch.object(graph_module, "_LINE_CHUNK", chunk):
            # a file opened as text is read as it is, a string at a time
            for source in (edges.encode(), io.BytesIO(edges.encode()), io.StringIO(edges)):
                g, lm = parse_edge_list(source)
                ref_g, ref_lm = parse_edge_list_reference(edges[1:])
                assert_identical(g, ref_g)
                assert lm == ref_lm
            for source in (weighted.encode(), io.BytesIO(weighted.encode()),
                           io.StringIO(weighted)):
                assert outcome(parse_edge_list, source) == fault
            for source in (labels.encode(), io.BytesIO(labels.encode()), io.StringIO(labels)):
                assert parse_label_file(source) == parse_label_file_reference(labels[1:])

    def test_carriage_return_only_file_spans_many_reads(self):
        # with no "\n" to cut at, the whole input is one piece, joined once:
        # joining or scanning what is pending at every read would be
        # quadratic, 15,000 reads of up to 3 MiB here
        lines = [f"{i:0100d} {i + 1:0100d}" for i in range(15_000)]
        by_cr, by_lf = ("".join(line + end for line in lines).encode() for end in "\r\n")

        def parse(data):
            t0 = time.perf_counter()
            out = parse_edge_list(io.BytesIO(data))
            return time.perf_counter() - t0, out

        with patch.object(graph_module, "_LINE_CHUNK", 1 << 8):
            assert len(by_cr) > 10_000 * (1 << 8)
            cr_s, (g, lm) = min((parse(by_cr) for _ in range(3)), key=lambda r: r[0])
            lf_s, (ref_g, ref_lm) = min((parse(by_lf) for _ in range(3)), key=lambda r: r[0])
        assert_identical(g, ref_g)
        assert lm == ref_lm and g.edge_count == len(lines)
        assert cr_s < 3 * lf_s + 0.2


@st.composite
def edge_sequences(draw, max_nodes=12, valid=True):
    """(n, edges) with random orientation, order and weights; with
    ``valid=False`` a few duplicates, self-loops, out-of-range ends and bad
    weights are mixed in."""
    n = draw(st.integers(1, max_nodes))
    pairs = sorted(draw(st.sets(st.sampled_from(list(combinations(range(n), 2))), max_size=40))
                   if n > 1 else set())
    weights = st.one_of(st.integers(1, 9).map(float),
                        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    edges = []
    for u, v in pairs:
        a, b = (u, v) if draw(st.booleans()) else (v, u)
        edges.append((a, b, draw(weights)))
    if not valid:
        bad = st.one_of(
            st.sampled_from(edges) if edges else st.nothing(),
            st.integers(0, n - 1).map(lambda u: (u, u, 1.0)),
            st.tuples(st.integers(0, n - 1), st.just(n), st.just(1.0)),
            st.tuples(st.just(0), st.just(n - 1),
                      st.sampled_from([0.0, -1.0, math.inf, math.nan])),
        )
        for _ in range(draw(st.integers(1, 3))):
            edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    draw(st.randoms(use_true_random=False)).shuffle(edges)
    return n, edges


class TestGraphOracle:
    """``Graph(...)`` against the construction that sorted every row."""

    @settings(max_examples=150, derandomize=True)
    @given(edge_sequences())
    def test_equals_reference(self, case):
        n, edges = case
        assert_identical(Graph(n, edges), graph_reference(n, edges))

    @settings(max_examples=150, derandomize=True)
    @given(edge_sequences(valid=False))
    def test_same_error_as_reference(self, case):
        n, edges = case
        with pytest.raises(ValueError) as ref:
            graph_reference(n, edges)
        with pytest.raises(ValueError) as got:
            Graph(n, edges)
        assert str(got.value) == str(ref.value)

    def test_hub_with_unsorted_rows(self):
        edges = [(0, v, float(v)) for v in range(199, 0, -1)]
        edges += [(v, v + 1, 1.0) for v in range(198, 0, -2)]
        assert_identical(Graph(200, edges), graph_reference(200, edges))


class TestGraphMetamorphic:
    @settings(max_examples=100, derandomize=True)
    @given(edge_sequences(), st.randoms(use_true_random=False))
    def test_edge_order_does_not_matter(self, case, rnd):
        n, edges = case
        edges = [(u, v, float(int(w) + 1)) for u, v, w in edges]  # integer weights
        canonical = sorted((min(u, v), max(u, v), w) for u, v, w in edges)
        rnd.shuffle(edges)
        g = Graph(n, edges)
        ref = Graph(n, canonical)
        assert g == ref
        assert g.total_weight == ref.total_weight

    @settings(max_examples=100, derandomize=True)
    @given(edge_sequences(), st.randoms(use_true_random=False))
    def test_duplicate_message_ignores_input_order(self, case, rnd):
        n, edges = case
        if not edges:
            return
        u, v, w = rnd.choice(edges)
        canonical = sorted((min(a, b), max(a, b), x) for a, b, x in edges + [(v, u, w)])
        shuffled = canonical[:]
        rnd.shuffle(shuffled)
        with pytest.raises(ValueError, match="duplicate edge") as sorted_err:
            Graph(n, canonical)
        with pytest.raises(ValueError, match="duplicate edge") as shuffled_err:
            Graph(n, shuffled)
        assert str(sorted_err.value) == str(shuffled_err.value)
        assert str(sorted_err.value) == f"duplicate edge between {min(u, v)} and {max(u, v)}"


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_pairs(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_pairs(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_pairs(2, [(0, 2)])

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, 0.0)])

    def test_rejects_weight_sum_overflow(self):
        # a ValueError, not the OverflowError of summing the weighted degrees
        with pytest.raises(ValueError, match="twice the total weight overflows"):
            Graph(3, [(0, 1, 1e308), (1, 2, 1e308)])

    @given(small_graphs(weighted=True))
    def test_adjacency_symmetric_with_equal_weights(self, g):
        for u in range(g.node_count):
            for v, w in zip(g.neighbors[u], g.edge_weights[u]):
                assert weight(g, v, u) == w

    def test_edges_sorted(self):
        g = Graph.from_pairs(4, [(2, 3), (0, 2), (0, 1)])
        assert [e[:2] for e in g.edges()] == [(0, 1), (0, 2), (2, 3)]


class TestLargestComponent:
    def test_connected_graph_returned_unchanged(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        sub, back = largest_connected_component(g)
        assert sub is g
        assert back == [0, 1, 2]

    def test_tie_broken_by_smallest_id(self):
        g = Graph.from_pairs(4, [(0, 1), (2, 3)])
        sub, back = largest_connected_component(g)
        assert back == [0, 1]
        assert sub.node_count == 2

    def test_larger_component_wins(self):
        g = Graph.from_pairs(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        sub, back = largest_connected_component(g)
        assert back == [0, 1, 2]
        assert sub.edge_count == 3

    def test_tie_skips_a_smaller_first_component(self):
        # node 0 lies in an edge; two paths of three nodes tie for largest
        g = Graph.from_pairs(8, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7)])
        sub, back = largest_connected_component(g)
        assert back == [2, 3, 4]
        assert list(sub.edge_pairs()) == [(0, 1), (1, 2)]

    def test_searches_each_component_once(self, monkeypatch):
        calls = []

        def reach(g, start, seen):
            calls.append(start)
            return search(g, start, seen)

        search = graph_module._reach
        monkeypatch.setattr(graph_module, "_reach", reach)
        g = Graph.from_pairs(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])
        sub, back = largest_connected_component(g)
        assert back == [2, 3, 4]
        assert calls == [0, 2, 5]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            largest_connected_component(Graph(0, []))

    @settings(max_examples=50)
    @given(small_graphs())
    def test_result_is_connected(self, g):
        sub, _ = largest_connected_component(g)
        cs = connected_components(sub)
        assert cs.component_count + len(cs.isolated) == 1


@st.composite
def fractional_subgraph_cases(draw):
    """A graph whose total weight depends on summation order, and a node
    subset: empty, one node, every node or any."""
    g = draw(small_graphs())
    weights = draw(st.lists(st.sampled_from((0.1, 0.2, 0.3, 1e16)),
                            min_size=g.edge_count, max_size=g.edge_count))
    g = Graph(g.node_count, ((u, v, w) for (u, v), w in zip(g.edge_pairs(), weights)))
    every = range(g.node_count)
    nodes = draw(st.one_of(
        st.just(set()), st.sets(st.sampled_from(every), min_size=1, max_size=1),
        st.just(set(every)), st.sets(st.sampled_from(every))))
    return g, nodes


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, back = induced_subgraph(g, {1, 2, 4})
        assert back == [1, 2, 4]
        assert list(sub.edge_pairs()) == [(0, 1)]

    def test_out_of_range_rejected(self):
        g = Graph.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            induced_subgraph(g, {0, 5})

    @given(fractional_subgraph_cases())
    # the kept total 0.1 + 0.2 + 0.3 in edge order is neither its fsum nor
    # half the sum over both directions of each edge
    @example((Graph(4, [(0, 1, 0.1), (0, 3, 0.2), (1, 3, 0.3), (2, 3, 1e16)]), {0, 1, 3}))
    def test_matches_filter_oracle(self, case):
        g, nodes = case
        sub, keep = induced_subgraph(g, nodes)
        ref, ref_keep = induced_subgraph_reference(g, nodes)
        assert keep == ref_keep
        assert_identical(sub, ref)
        for new_u, old_u in enumerate(keep):
            parent = dict(zip(g.neighbors[old_u], g.edge_weights[old_u]))
            for new_v, w in zip(sub.neighbors[new_u], sub.edge_weights[new_u]):
                assert w is parent[keep[new_v]]


class TestStats:
    def test_triangle(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        s = graph_stats(g)
        assert (s["n"], s["m"], s["total_weight"]) == (3, 3, 3.0)

    def test_nodes_without_edges_counted(self):
        g, _ = parse_edge_list("a a\nb b\nc c\n")
        s = graph_stats(g)
        assert s["n"] == 3 and s["m"] == 0

    def test_degree_summary(self):
        rng = random.Random(7)
        g = gnp(20, 0.3, rng)
        s = graph_stats(g)
        degs = [degree(g, u) for u in range(20)]
        assert s["degrees"]["min"] == min(degs)
        assert s["degrees"]["max"] == max(degs)
        assert s["degrees"]["mean"] == pytest.approx(sum(degs) / 20)


class TestLabelFile:
    def test_parse_pairs(self):
        assert parse_label_file("a 1\nb 2\n# c 3\n") == {"a": "1", "b": "2"}

    def test_leading_byte_order_mark_ignored(self):
        for source in ("\ufeffa 1\nb 2\n", b"\xef\xbb\xbf# c 3\na 1\nb 2\n"):
            assert parse_label_file(source) == {"a": "1", "b": "2"}

    def test_duplicate_node_rejected(self):
        with pytest.raises(EdgeListError, match="line 2.*duplicate"):
            parse_label_file("a 1\na 2\n")

    def test_wrong_fields_rejected(self):
        with pytest.raises(EdgeListError, match="expected 2 fields"):
            parse_label_file("a 1 extra\n")

    def test_empty_rejected(self):
        with pytest.raises(EdgeListError, match="no labels"):
            parse_label_file("\n")


NODES = [str(i) for i in range(99)] + ["x#"]


@st.composite
def label_texts(draw):
    """Label-file text: pairs, blank and comment lines, whitespace that
    ``str.split`` splits on but that breaks no line, every ``str.splitlines``
    break, and in one text of four a line of 1 or 3 fields; node tokens are
    drawn from 100, so some texts repeat one."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0"]))
        kind = draw(st.sampled_from(["pair"] * 4 + ["blank", "comment"]))
        node = draw(st.sampled_from(NODES))
        tokens = {"pair": [node, draw(TOKENS)], "blank": [],
                  "comment": [draw(st.sampled_from(["#", "%"])) + node, draw(TOKENS)]}[kind]
        lines.append(draw(st.sampled_from(["", sep])) + sep.join(tokens))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["a", "a 1 2"])))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    return text + draw(st.sampled_from(["", "a 1"]))  # the last line may have no break


class TestLabelFileOracle:
    """``parse_label_file`` against the whole-text line loop it replaced."""

    @settings(max_examples=300, derandomize=True)
    @given(label_texts())
    @example("a 1\r\nb 2\rb 3\n")
    @example("a 1\x85 b\u2028# c d e\x0bc")
    def test_equals_reference(self, text):
        assert outcome(parse_label_file, text) == outcome(parse_label_file_reference, text)


def test_block_graph_rejects_cross_edges_it_could_never_draw():
    # one block has no cross-block pair, so drawing them would never stop
    with pytest.raises(ValueError, match="cross-block"):
        block_graph(1, 10, within=6, cross=2, rng=random.Random(0))
