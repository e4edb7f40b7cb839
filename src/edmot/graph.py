"""Undirected simple graphs, edge-list ingestion, connectivity helpers, and
the triangle hypergraph (motif co-occurrence adjacency)."""

from __future__ import annotations

import codecs
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import IO, Iterable, Iterator

COMMENT_PREFIXES = ("#", "%")
_LINE_CHUNK = 1 << 12  # characters of a text, or bytes, read at a time


class EdgeListError(ValueError):
    """Malformed edge-list or label-file input."""


class Graph:
    """Undirected simple graph over dense node ids ``0..node_count-1``.

    Edges carry positive weights (1.0 for parsed input). Self-loops,
    parallel edges, out-of-range ends and bad weights are rejected here.
    Two producers in this module already hold sorted rows, so they skip
    these checks and build the rows themselves, with every field as this
    constructor would set it: :func:`parse_edge_list` drops self-loops,
    sorts and dedupes each node's row, and unit weights sum exactly in any
    order; and :func:`induced_subgraph` filters a valid graph's sorted rows
    through an increasing id map and sums the kept edges in lexicographic
    order. :func:`build_motif_adjacency` calls this constructor.

    Rows may share objects, between graphs and within one graph: the id ints
    (the parse's rows hold the ids' own ints), the weight floats, and whole
    weight lists (the parse gives every node of one degree the same
    unit-weight list). So rows must never be mutated. Every row holds no
    spare slots. Instances are immutable after construction and safe to read
    from multiple threads.
    """

    __slots__ = ("node_count", "edge_count", "total_weight", "neighbors", "edge_weights")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, float]]):
        """Take each edge once, as (u, v, weight); a float weight is kept as
        that object. A node's neighbours and weights grow as one list, split
        into sorted rows that are slices, so they hold no spare slots.
        """
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        nbrs: list[list] = [[] for _ in range(node_count)]
        total = 0.0
        for u, v, w in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            w = float(w)
            if not 0.0 < w < math.inf:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
            nbrs[u] += v, w
            nbrs[v] += u, w
            total += w
        wts: list[list[float]] = [[]] * node_count
        for u, row in enumerate(nbrs):
            nb, wt = row[::2], row[1::2]
            nb.sort()
            if nb != row[::2]:
                weight_of = dict(zip(row[::2], wt))
                wt[:] = map(weight_of.__getitem__, nb)
            if len(nb) > 1 and len(set(nb)) != len(nb):
                a = next(a for a, b in zip(nb, nb[1:]) if a == b)
                raise ValueError(f"duplicate edge between {u} and {a}")
            nbrs[u], wts[u] = nb, wt
        self._set_rows(nbrs, wts, total)

    def _set_rows(self, nbrs: list[list[int]], wts: list[list[float]],
                  total: float) -> "Graph":
        """Take sorted, symmetric, duplicate-free, exact-length rows as the
        graph; returns self."""
        if 2 * total == math.inf:
            raise ValueError("twice the total weight overflows a float")
        self.node_count = len(nbrs)
        self.edge_count = sum(map(len, nbrs)) // 2
        self.total_weight = total
        self.neighbors = nbrs
        self.edge_weights = wts
        return self

    @classmethod
    def from_pairs(cls, node_count: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(node_count, ((u, v, 1.0) for u, v in pairs))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """All edges as (u, v, weight) with u < v, in lexicographic order."""
        for u in range(self.node_count):
            nb = self.neighbors[u]
            wt = self.edge_weights[u]
            for i in range(len(nb)):
                if nb[i] > u:
                    yield u, nb[i], wt[i]

    def edge_pairs(self) -> Iterator[tuple[int, int]]:
        for u, v, _ in self.edges():
            yield u, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.neighbors == other.neighbors
                and self.edge_weights == other.edge_weights)

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


@dataclass
class LabelMap:
    """External node token of each dense id: ``labels[id]``."""
    labels: list[str]


def _utf8_error(exc: UnicodeDecodeError, start: int) -> EdgeListError:
    """``exc``, whose object starts at byte ``start`` of the input, in the
    words of decoding the whole input at once."""
    a, b = start + exc.start, start + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {a}" if b - a == 1
             else f"bytes in position {a}-{b - 1}")
    return EdgeListError(f"input is not valid UTF-8: '{exc.encoding}' codec can't "
                         f"decode {where}: {exc.reason}")


def _pieces(source: str | bytes | IO) -> Iterator[str]:
    """The text of ``source`` in pieces whose ``splitlines()`` are the lines
    of the whole text, with a leading byte-order mark dropped.

    A ``str`` is read as a file opened as text is: ``_LINE_CHUNK``
    characters at a time, taken as they are, but in slices of the ``str``,
    since ``io.StringIO`` would copy it at 4 bytes a character. ``bytes``
    (through ``io.BytesIO``) and a file opened as bytes are read
    ``_LINE_CHUNK`` bytes at a time through an incremental UTF-8 decoder.
    Each piece ends just after the last ``"\\n"`` read so far; the text
    after it waits in a list of reads, joined once it is cut, so no
    whole-file text exists unless the input holds no ``"\\n"``. A
    ``"\\n"`` ends a line whatever precedes it and never starts a
    two-character break, so no line break straddles a cut. Bytes that are
    not UTF-8 raise EdgeListError, with their position in the whole input,
    once the lines that end before them have been yielded.
    """
    if isinstance(source, str):
        slices = (source[i:i + _LINE_CHUNK] for i in count(0, _LINE_CHUNK))
        read = lambda size: next(slices)  # "" once past the end
    else:
        read = (io.BytesIO(source) if isinstance(source, bytes) else source).read
    decode = codecs.getincrementaldecoder("utf-8")().decode
    tail: list[str] = []  # the text read since the last cut
    size = 0  # bytes read
    bom = "\ufeff"  # dropped from the start of the first text read
    while True:
        data = read(_LINE_CHUNK)
        size += len(data)
        fault = None
        try:
            text = data if isinstance(data, str) else decode(data, not data)
        except UnicodeDecodeError as exc:
            # the decoder's object is the bytes it held and this read, so it ends at size
            fault = _utf8_error(exc, size - len(exc.object))
            text = exc.object[:exc.start].decode("utf-8")
        if text:
            text, bom = text.removeprefix(bom), ""
        if fault is not None:
            text = "".join([*tail, text])
            last = text.splitlines(True)[-1:]
            if last and last[0].splitlines() == last:  # the line the fault is in
                text = text[:-len(last[0])]
            if text:
                yield text
            raise fault
        cut = text.rfind("\n") + 1
        if cut:
            yield "".join([*tail, text[:cut]])
            tail.clear()
            text = text[cut:]
        if text:
            tail.append(text)
        if not data:
            break
    if tail:
        yield "".join(tail)


def _records(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each data line of ``lines``, numbered from
    ``start``: blank lines and lines whose first token starts with a comment
    prefix are skipped, and a line of other than two tokens raises
    EdgeListError."""
    for lineno, raw in enumerate(lines, start):
        parts = raw.split()
        if not parts or parts[0].startswith(COMMENT_PREFIXES):
            continue
        if len(parts) != 2:
            raise EdgeListError(
                f"line {lineno}: expected 2 fields, got {len(parts)}: {raw!r}")
        yield lineno, parts


def parse_edge_list(source: str | bytes | IO) -> tuple[Graph, LabelMap]:
    """Parse a whitespace-delimited edge list into a canonical Graph.

    One edge per line, ``u v``, of weight 1; external ids are arbitrary
    tokens mapped to dense ids in first-appearance order. Lines starting
    with a comment prefix are skipped. Canonicalization: self-loops are
    dropped (their endpoints still become nodes) and duplicate edges
    collapse, so directed input is symmetrized. The pipeline reads no input
    weights, so a line with a weight column is a line of three fields.

    ``source`` is read a :func:`_pieces` piece at a time, so a file or
    ``bytes`` is never held as one decoded text, and the parse's memory
    follows the graph it builds, not the file. A piece with no comment
    prefix character whose every line holds two tokens is split and mapped
    to ids at once, so no Python code runs per token; any other piece is
    read line by line, numbered from its first line, so errors carry the
    same line numbers and text either way.

    Raises EdgeListError, with the offending line number, for wrong field
    counts and for input containing no data lines at all, and, with its
    byte position, for input that is not UTF-8. Of two faults, the first in
    the input is the one raised.
    """
    pieces = _pieces(source)
    del source  # the reader holds the input until it has read it through
    # a token's id is assigned at its first lookup; a count, not ids.__len__,
    # so the map is no reference cycle and dies with this call
    ids: defaultdict[str, int] = defaultdict(count().__next__)
    # each node's row gathers the other end of each of its edge lines as
    # the ids' own int objects, so the rows share them
    nbrs: list[list[int]] = []
    lineno = 0
    for piece in pieces:
        lines = piece.splitlines()
        first, lineno = lineno + 1, lineno + len(lines)
        if (all(prefix not in piece for prefix in COMMENT_PREFIXES)
                and all(map((2).__eq__, map(len, map(str.split, lines))))):
            del lines  # before the split, so both lists are never alive
            # every "splitlines" break is whitespace to str.split, so the
            # piece's tokens are its lines' tokens, in order
            ends = list(map(ids.__getitem__, piece.split()))
        else:
            ends = [ids[tok] for _, parts in _records(lines, first) for tok in parts]
        nbrs += [[] for _ in range(len(ids) - len(nbrs))]  # the new nodes' rows
        pairs = iter(ends)
        for u, v in zip(pairs, pairs):
            if u != v:
                nbrs[u].append(v)
                nbrs[v].append(u)
    if not ids:
        raise EdgeListError("no edges found in input")
    for u, row in enumerate(nbrs):
        row.sort()
        if len(set(row)) < len(row):  # a repeated edge
            row = sorted(set(row))
        nbrs[u] = row[:]  # a slice holds no spare slots
    # every node of one degree gets the same list of 1.0s
    ones = {d: [1.0] * d for d in set(map(len, nbrs))}
    wts = [ones[len(row)] for row in nbrs]
    total = float(sum(map(len, nbrs)) // 2)
    return Graph.__new__(Graph)._set_rows(nbrs, wts, total), LabelMap(list(ids))


def write_edge_list(g: Graph, tokens: list[str] | None = None, *,
                    weighted: bool = False) -> str:
    """Serialize edges as text, one ``u v [w]`` line per edge, u-side sorted.

    Node ``u`` is written as ``tokens[u]``, or as its dense id without
    ``tokens``; an edge whose first token reads as a comment is written with
    its other token first, and one whose tokens both do raises ValueError.
    Without ``weighted``, round-trips through :func:`parse_edge_list`
    (isolated nodes cannot be represented in this format and are dropped);
    the ``weighted`` form, the ``motif`` export, is not read back.
    """
    name = tokens.__getitem__ if tokens is not None else str
    lines = []
    for u, v, w in g.edges():
        a, b = name(u), name(v)
        if a.startswith(COMMENT_PREFIXES):
            if b.startswith(COMMENT_PREFIXES):
                raise ValueError(f"edge {a!r} {b!r}: both tokens start a comment")
            a, b = b, a
        if weighted:
            b += " " + (str(int(w)) if w.is_integer() else repr(w))
        lines.append(f"{a} {b}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_label_file(source: str | bytes | IO) -> dict[str, str]:
    """Parse ground-truth labels: one ``node_id community_label`` pair per line.

    ``source`` is read as :func:`parse_edge_list` reads it, a :func:`_pieces`
    piece at a time."""
    out: dict[str, str] = {}
    lines = chain.from_iterable(map(str.splitlines, _pieces(source)))
    for lineno, (node, label) in _records(lines):
        if node in out:
            raise EdgeListError(f"line {lineno}: duplicate label for node {node!r}")
        out[node] = label
    if not out:
        raise EdgeListError("no labels found in input")
    return out


def _reach(g: Graph, start: int, seen: bytearray) -> list[int]:
    """The unseen nodes reachable from unseen ``start``, marked seen, in
    breadth-first order: one list that is also the search's queue."""
    seen[start] = 1
    comp = [start]
    for u in comp:  # visits the nodes appended while it runs
        for v in g.neighbors[u]:
            if not seen[v]:
                seen[v] = 1
                comp.append(v)
    return comp


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph on ``nodes`` with re-densified ids.

    Returns the subgraph and a map ``new_id -> old_id`` (new ids follow the
    sorted order of the kept old ids). Each row is the parent's row filtered
    to the kept ids and renumbered, so the weights are the parent's own
    float objects.
    """
    keep = sorted(set(nodes))
    if keep and not (0 <= keep[0] and keep[-1] < g.node_count):
        raise ValueError("node ids out of range for induced subgraph")
    pos = {old: new for new, old in enumerate(keep)}
    nbrs: list[list[int]] = []
    wts: list[list[float]] = []
    total = 0.0
    for new_u, old_u in enumerate(keep):
        row, wt = [], []
        for old_v, w in zip(g.neighbors[old_u], g.edge_weights[old_u]):
            new_v = pos.get(old_v)
            if new_v is not None:
                row.append(new_v)
                wt.append(w)
                if new_v > new_u:
                    total += w
        nbrs.append(row[:])  # a slice holds no spare slots
        wts.append(wt[:])
    return Graph.__new__(Graph)._set_rows(nbrs, wts, total), keep


def largest_connected_component(g: Graph) -> tuple[Graph, list[int]]:
    """Induced subgraph on the largest component, plus a new->old id map.

    One breadth-first sweep over the nodes searches each component once and
    keeps only the first largest search list, so ties on size break toward
    the component containing the smallest node id. When that list covers
    every node, ``g`` is returned as-is with the list sorted as the identity
    map, which holds the rows' own id ints.
    """
    if g.node_count == 0:
        raise ValueError("cannot extract a component from an empty graph")
    seen = bytearray(g.node_count)
    comp = max((_reach(g, s, seen) for s in range(g.node_count) if not seen[s]), key=len)
    if len(comp) == g.node_count:
        comp.sort()
        return g, comp
    return induced_subgraph(g, comp)


def build_motif_adjacency(g: Graph) -> Graph:
    """Weighted graph whose edge {i, j} counts the triangles containing both.

    Node set matches ``g``; pairs in no common triangle carry no edge. The
    triangles on edge {i, j} are its common neighbours, so its weight is
    ``|N(i) & N(j)|``. Each edge is counted once, at its end ranked higher by
    (degree, id): that end's neighbour set is built once, and the other
    end's row is looked up in it, so the total work is O(sum over edges of
    the smaller degree), the Chiba-Nishizeki bound. Only one neighbour set is
    alive at a time. Each count goes to ``Graph(...)`` as it is found, as one
    float shared by every edge of that count; integer counts sum exactly in
    any order.
    """
    nbrs = g.neighbors

    def counts() -> Iterator[tuple[int, int, float]]:
        share: dict[int, float] = {}
        # Sweep the nodes by (degree, id), ties kept in id order by the stable
        # sort, so the neighbours already swept are exactly the lower-ranked ones.
        swept = bytearray(g.node_count)
        for x in sorted(range(g.node_count), key=lambda u: len(nbrs[u])):
            nb = nbrs[x]
            swept[x] = 1
            lower = [y for y in nb if swept[y]]
            if not lower:
                continue
            common = set(nb).intersection
            for y in lower:
                t = len(common(nbrs[y]))
                if t:
                    yield x, y, share.setdefault(t, float(t))

    return Graph(g.node_count, counts())


def graph_stats(g: Graph) -> dict:
    """Basic size statistics: n, m, total weight, degree summary."""
    degs = [len(nb) for nb in g.neighbors]
    n = g.node_count
    return {
        "n": n,
        "m": g.edge_count,
        "total_weight": g.total_weight,
        "degrees": {
            "min": min(degs, default=0),
            "max": max(degs, default=0),
            "mean": (sum(degs) / n) if n else 0.0,
        },
    }
