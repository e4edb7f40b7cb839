"""The motif co-occurrence (triangle hypergraph) adjacency."""

from __future__ import annotations

from bisect import bisect_right

from .graph import Graph


def build_motif_adjacency(g: Graph) -> Graph:
    """Weighted graph whose edge {i, j} counts the triangles containing both.

    Node set matches ``g``; pairs in no common triangle carry no edge. The
    triangles on edge {i, j} are its common neighbours, so its weight is
    ``|N(i) & N(j)|``; a set intersection walks the smaller set, so the
    total work is O(sum over edges of the smaller degree), the
    Chiba-Nishizeki bound. Edges are emitted in lexicographic order, which
    lets :class:`Graph` skip sorting its rows.
    """
    nbr = [set(nb) for nb in g.neighbors]

    def weighted_edges():
        for u, nb in enumerate(g.neighbors):
            su = nbr[u]
            for v in nb[bisect_right(nb, u):]:
                t = len(su & nbr[v])
                if t:
                    yield u, v, float(t)

    return Graph(g.node_count, weighted_edges())


def count_triangles(g: Graph) -> int:
    """Number of triangles in ``g``: each adds 1 to each of its three edges."""
    return int(build_motif_adjacency(g).total_weight) // 3
