"""The motif co-occurrence (triangle hypergraph) adjacency."""

from __future__ import annotations

from .graph import Graph


def build_motif_adjacency(g: Graph) -> Graph:
    """Weighted graph whose edge {i, j} counts the triangles containing both.

    Node set matches ``g``; pairs in no common triangle carry no edge. The
    triangles on edge {i, j} are its common neighbours, so its weight is
    ``|N(i) & N(j)|``. Each edge is counted once, at its end ranked higher by
    (degree, id): that end's neighbour set is built once, and the other
    end's row is looked up in it, so the total work is O(sum over edges of
    the smaller degree), the Chiba-Nishizeki bound. Only one neighbour set is
    alive at a time, and each count goes straight into the result.
    """
    nbrs = g.neighbors

    def weighted_edges():
        # Sweep the nodes by (degree, id), ties kept in id order by the
        # stable sort, so the neighbours already swept are exactly the
        # lower-ranked ones.
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
                    yield x, y, float(t)

    return Graph(g.node_count, weighted_edges())
