"""Triangle enumeration and the motif co-occurrence (hypergraph) adjacency."""

from __future__ import annotations

from typing import Iterator

from .graph import Graph


def _forward_triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield each triangle exactly once via degree-ordered edge orientation.

    Nodes are ranked by (degree, id) ascending and every edge oriented
    low-to-high rank; a triangle is reported at its lowest-rank corner as a
    common out-neighbor of the other two. Out-degrees are O(sqrt(m)), so the
    intersection work totals O(m^1.5).
    """
    n = g.node_count
    rank = [0] * n
    for r, u in enumerate(sorted(range(n), key=lambda u: (len(g.neighbors[u]), u))):
        rank[u] = r
    out: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        ru = rank[u]
        out[u] = [v for v in g.neighbors[u] if rank[v] > ru]
    out_sets = [set(o) for o in out]
    for u in range(n):
        ou = out[u]
        su = out_sets[u]
        for v in ou:
            ov = out[v]
            if len(ov) <= len(ou):
                for w in ov:
                    if w in su:
                        yield u, v, w
            else:
                sv = out_sets[v]
                for w in ou:
                    if w in sv:
                        yield u, v, w


def count_triangles(g: Graph) -> int:
    return sum(1 for _ in _forward_triangles(g))


def build_motif_adjacency(g: Graph) -> Graph:
    """Weighted graph whose edge {i, j} counts the triangles containing both.

    Node set matches ``g``; pairs in no common triangle carry no edge.
    """
    counts: dict[tuple[int, int], int] = {}
    for u, v, w in _forward_triangles(g):
        a, b, c = sorted((u, v, w))
        for pair in ((a, b), (a, c), (b, c)):
            counts[pair] = counts.get(pair, 0) + 1
    return Graph(g.node_count, ((i, j, float(t)) for (i, j), t in counts.items()))
