"""Undirected simple graphs, edge-list ingestion, connectivity helpers, and
the triangle hypergraph (motif co-occurrence adjacency)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

COMMENT_PREFIXES = ("#", "%")
_LINE_CHUNK = 1 << 16  # characters the parse splits into lines at a time


class EdgeListError(ValueError):
    """Malformed edge-list or label-file input."""


def _split_rows(rows: list[list]) -> list[list[float]]:
    """Split rows that interleave each neighbour with its edge's weight, as
    this module's producers build them (one list per node), into sorted
    neighbour rows, which replace them in ``rows``, and weight rows, which
    are returned. Each new row is a slice, so it holds no spare slots, and
    it keeps the built row's own int and float objects. Lexicographic input
    leaves nothing to reorder.
    """
    wts: list[list[float]] = [[]] * len(rows)
    for u, row in enumerate(rows):
        nb, wt = row[::2], row[1::2]
        nb.sort()
        if nb != row[::2]:
            weight_of = dict(zip(row[::2], wt))
            wt[:] = map(weight_of.__getitem__, nb)
        rows[u], wts[u] = nb, wt
    return wts


class Graph:
    """Undirected simple graph over dense node ids ``0..node_count-1``.

    Edges carry positive weights (1.0 for unweighted input). Self-loops,
    parallel edges, out-of-range ends and bad weights are rejected here.
    Three producers in this module skip these checks and build the rows
    themselves, with every field as this constructor would set it: the
    unweighted :func:`parse_edge_list` drops self-loops, sorts and dedupes
    each node's row, and unit weights sum exactly in any order;
    :func:`build_motif_adjacency` counts each edge of a valid graph once,
    and integer counts sum exactly in any order; and
    :func:`induced_subgraph` filters a valid graph's sorted rows through an
    increasing id map and sums the kept edges in lexicographic order. The
    weighted parse calls this constructor.

    Rows may share objects, between graphs and within one graph: the id ints
    (the parse's rows hold the ids' own ints), the weight floats, and whole
    weight lists (the parse gives every node of one degree the same
    unit-weight list). So rows must never be mutated. Each distinct value of
    ``weighted_degrees`` is one float object, shared by every node of that
    weighted degree. Instances are immutable after construction and safe to
    read from multiple threads.
    """

    __slots__ = ("node_count", "edge_count", "total_weight",
                 "neighbors", "edge_weights", "weighted_degrees")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, float]]):
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
        wts = _split_rows(nbrs)
        for u, row in enumerate(nbrs):
            if len(row) > 1 and len(set(row)) != len(row):
                a = next(a for a, b in zip(row, row[1:]) if a == b)
                raise ValueError(f"duplicate edge between {u} and {a}")
        self._set_rows(nbrs, wts, total)

    def _set_rows(self, nbrs: list[list[int]], wts: list[list[float]],
                  total: float) -> "Graph":
        """Take sorted, symmetric, duplicate-free rows as the graph, and share
        one float per distinct weighted degree; returns self."""
        if 2 * total == math.inf:
            raise ValueError("twice the total weight overflows a float")
        self.node_count = len(nbrs)
        self.edge_count = sum(map(len, nbrs)) // 2
        self.total_weight = total
        self.neighbors = nbrs
        self.edge_weights = wts
        share: dict[float, float] = {}
        self.weighted_degrees = [share.setdefault(d, d) for d in map(math.fsum, wts)]
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


def _read_text(source: str | bytes | IO) -> str:
    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EdgeListError(f"input is not valid UTF-8: {exc}") from None
    return source.removeprefix("\ufeff")  # a leading byte-order mark is not data


def _lines(text: str, chunk: int = _LINE_CHUNK) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split a chunk at a time.

    A chunk ends just after the first ``"\\n"`` that lies at least ``chunk``
    characters past its start, or at the end of ``text``. A ``"\\n"`` ends a
    line whatever precedes it and never starts a two-character break, so no
    line break straddles a cut, and the lines are those of splitting
    ``text`` at once, without a list of them all.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + chunk) + 1 or len(text)
        yield from text[start:cut].splitlines()
        start = cut


def _records(text: str, fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each data line of ``text``, read by
    :func:`_lines`: blank lines and lines whose first token starts with a
    comment prefix are skipped, and a line of other than ``fields`` tokens
    raises EdgeListError."""
    for lineno, raw in enumerate(_lines(text), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith(COMMENT_PREFIXES):
            continue
        if len(parts) != fields:
            raise EdgeListError(
                f"line {lineno}: expected {fields} fields, got {len(parts)}: {raw!r}")
        yield lineno, parts


def parse_edge_list(source: str | bytes | IO, *, weighted: bool = False,
                    ) -> tuple[Graph, LabelMap]:
    """Parse a whitespace-delimited edge list into a canonical Graph.

    One edge per line, ``u v`` (or ``u v w`` when ``weighted``); external ids
    are arbitrary tokens mapped to dense ids in first-appearance order. Lines
    starting with a comment prefix are skipped. Canonicalization: self-loops
    are dropped (their endpoints still become nodes), duplicate unweighted
    edges collapse to weight 1, duplicate weighted edges sum. Directed input
    is thereby symmetrized.

    Raises EdgeListError, with the offending line number, for wrong field
    counts, bad weights or weights whose doubled sum overflows a float, and
    for input containing no data lines at all.
    """
    text = _read_text(source)
    del source  # the undecoded bytes, if it held them
    ids: dict[str, int] = {}
    # Unweighted, each node's row gathers the other end of each of its edge
    # lines as the ids' own int objects, so the rows share them. Weighted,
    # edge {u, v}, u < v, is keyed by the int u << 32 | v (ids stay below
    # 2**32), so sorting the keys sorts the edges lexicographically.
    nbrs: list[list[int]] = []
    acc: dict[int, float] = {}
    total = 0.0
    for lineno, parts in _records(text, 3 if weighted else 2):
        if weighted:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListError(
                    f"line {lineno}: weight is not a number: {parts[2]!r}") from None
            if not 0.0 < w < math.inf:
                raise EdgeListError(
                    f"line {lineno}: weight must be positive and finite: {parts[2]!r}")
        u = ids.setdefault(parts[0], len(ids))
        v = ids.setdefault(parts[1], len(ids))
        if not weighted:
            while len(nbrs) < len(ids):  # a new node's row
                nbrs.append([])
            if u != v:
                nbrs[u].append(v)
                nbrs[v].append(u)
        elif u != v:
            key = u << 32 | v if u < v else v << 32 | u
            acc[key] = acc.get(key, 0.0) + w
            total += w
            if 2 * total == math.inf:
                raise EdgeListError(f"line {lineno}: twice the total weight overflows a float")
    del text
    if not ids:
        raise EdgeListError("no edges found in input")
    if weighted:
        # decoded through the ids' own int objects, so the rows share them;
        # each weight leaves acc as its edge enters the rows
        node = list(ids.values())
        low = (1 << 32) - 1
        edges = ((node[k >> 32], node[k & low], acc.pop(k)) for k in sorted(acc))
        return Graph(len(ids), edges), LabelMap(list(ids))
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
    Round-trips through :func:`parse_edge_list` (isolated nodes cannot be
    represented in this format and are dropped).
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
    """Parse ground-truth labels: one ``node_id community_label`` pair per line."""
    out: dict[str, str] = {}
    for lineno, (node, label) in _records(_read_text(source), 2):
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


def connected_node_sets(g: Graph) -> list[frozenset[int]]:
    """Connected components as frozensets, largest first, ties by smallest member id.

    Each component is searched as one list and frozen once at the end, so
    it exists in no other form.
    """
    seen = bytearray(g.node_count)
    out = [frozenset(_reach(g, start, seen))
           for start in range(g.node_count) if not seen[start]]
    out.sort(key=len, reverse=True)  # stable: discovered in ascending smallest-id order
    return out


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
    nbrs: list[list[int]] = [[] for _ in keep]
    wts: list[list[float]] = [[] for _ in keep]
    total = 0.0
    for new_u, old_u in enumerate(keep):
        row, wt = nbrs[new_u], wts[new_u]
        for old_v, w in zip(g.neighbors[old_u], g.edge_weights[old_u]):
            new_v = pos.get(old_v)
            if new_v is not None:
                row.append(new_v)
                wt.append(w)
                if new_v > new_u:
                    total += w
    return Graph.__new__(Graph)._set_rows(nbrs, wts, total), keep


def largest_connected_component(g: Graph) -> tuple[Graph, list[int]]:
    """Induced subgraph on the largest component, plus a new->old id map.

    Ties on component size break toward the component containing the
    smallest node id. A connected graph is returned as-is with the
    identity map, which is its search list sorted, so it holds the rows'
    own id ints; no component set is built for it.
    """
    if g.node_count == 0:
        raise ValueError("cannot extract a component from an empty graph")
    first = _reach(g, 0, bytearray(g.node_count))
    if len(first) == g.node_count:
        first.sort()
        return g, first
    return induced_subgraph(g, connected_node_sets(g)[0])


def build_motif_adjacency(g: Graph) -> Graph:
    """Weighted graph whose edge {i, j} counts the triangles containing both.

    Node set matches ``g``; pairs in no common triangle carry no edge. The
    triangles on edge {i, j} are its common neighbours, so its weight is
    ``|N(i) & N(j)|``. Each edge is counted once, at its end ranked higher by
    (degree, id): that end's neighbour set is built once, and the other
    end's row is looked up in it, so the total work is O(sum over edges of
    the smaller degree), the Chiba-Nishizeki bound. Only one neighbour set is
    alive at a time. Each count goes into both rows as one float shared by
    every edge of that count. A node's neighbours and counts are built as
    one list, which ``_split_rows`` then splits into its sorted rows.
    """
    nbrs = g.neighbors
    # each row interleaves neighbours and weights until _split_rows
    rows: list[list] = [[] for _ in nbrs]
    share: dict[int, float] = {}
    total = 0
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
        row = rows[x]
        for y in lower:
            t = len(common(nbrs[y]))
            if t:
                w = share.setdefault(t, float(t))
                row += y, w
                rows[y] += x, w
                total += t
    wts = _split_rows(rows)
    return Graph.__new__(Graph)._set_rows(rows, wts, float(total))


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
