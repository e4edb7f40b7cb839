"""The motif co-occurrence (triangle hypergraph) adjacency."""

from __future__ import annotations

from .graph import Graph, _sort_rows


def build_motif_adjacency(g: Graph) -> Graph:
    """Weighted graph whose edge {i, j} counts the triangles containing both.

    Node set matches ``g``; pairs in no common triangle carry no edge. The
    triangles on edge {i, j} are its common neighbours, so its weight is
    ``|N(i) & N(j)|``. Each edge is counted once, at its end ranked higher by
    (degree, id): that end's neighbour set is built once, and the other
    end's row is looked up in it, so the total work is O(sum over edges of
    the smaller degree), the Chiba-Nishizeki bound. Only one neighbour set is
    alive at a time. Each count goes into both rows as one float shared by
    every edge of that count, skipping ``Graph(...)``'s checks, exactly: the
    edges of ``g`` are valid and each is counted once, and integer counts sum
    exactly in any order. ``Graph``'s own row sort then orders the rows.
    """
    nbrs = g.neighbors
    rows: list[list[int]] = [[] for _ in nbrs]
    wts: list[list[float]] = [[] for _ in nbrs]
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
        row, wt = rows[x], wts[x]
        for y in lower:
            t = len(common(nbrs[y]))
            if t:
                w = share.setdefault(t, float(t))
                row.append(y)
                wt.append(w)
                rows[y].append(x)
                wts[y].append(w)
                total += t
    _sort_rows(rows, wts)
    return Graph.__new__(Graph)._set_rows(rows, wts, float(total))
