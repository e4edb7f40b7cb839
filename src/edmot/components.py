"""Connected components and isolated nodes of the motif hypergraph."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, _reach


@dataclass(frozen=True)
class ComponentSet:
    """Hypergraph components (each with >= 2 nodes) plus the isolated nodes.

    Each component, and ``isolated``, is a tuple of node ids in increasing
    order. The components run by node count descending, ties broken by
    smallest member id. Together they partition the node set. A report of
    the split needs only the component sizes, which ``edmot components``
    counts without building this set (see :func:`fragmentation_report`).
    """
    components: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


def connected_components(h: Graph) -> ComponentSet:
    """Split a weighted graph into largest-first components and isolated nodes."""
    seen = bytearray(h.node_count)
    comps: list[tuple[int, ...]] = []
    isolated: list[int] = []
    for s in range(h.node_count):  # discovered in ascending smallest-id order
        if not seen[s]:
            comp = _reach(h, s, seen)
            if len(comp) >= 2:
                comp.sort()
                comps.append(tuple(comp))  # the only copy kept
            else:
                isolated.append(s)
    # freed before the result tuples are copied, so the split peaks at the
    # result plus one list of its components
    del seen
    comps.sort(key=len, reverse=True)  # stable, so ties stay in smallest-id order
    return ComponentSet(components=tuple(comps), isolated=tuple(isolated))


def _motif_roots(g: Graph) -> list[int]:
    """Each node's root in a union-find forest over ``g``'s triangle
    hypergraph, found from ``g`` alone: two nodes share a root exactly when
    they lie in one hypergraph component.

    It counts no triangles and builds no hypergraph: edge {x, y} is a
    hyperedge exactly when ``x`` and ``y`` have a common neighbour, and each
    hyperedge joins its ends' trees. Edges are tested as the triangle kernel
    counts them, once, from the end ranked higher by (degree, id), whose
    neighbour set is built once, so the tests cost O(sum over edges of the
    smaller degree); an edge whose ends are already joined is not tested at
    all. Besides the input, the search keeps two lists and a bytearray of
    one entry per node.
    """
    nbrs = g.neighbors
    # root[u] is u or a node swept after u, so one pass in reverse sweep
    # order points every node at its tree's root
    root = list(range(g.node_count))
    order = sorted(root, key=lambda u: len(nbrs[u]))  # the same int objects
    swept = bytearray(g.node_count)
    for x in order:
        nb = nbrs[x]
        swept[x] = 1  # only swept nodes are joined, so x is still its own root
        disjoint = None
        for y in nb:
            if not swept[y]:
                continue
            r = y
            while r != root[r]:
                root[r] = r = root[root[r]]
            if r == x:
                continue
            if disjoint is None:
                disjoint = set(nb).isdisjoint
            if not disjoint(nbrs[y]):
                root[r] = x
    for u in reversed(order):
        root[u] = root[root[u]]
    return root


def motif_components(g: Graph) -> ComponentSet:
    """The components of ``g``'s triangle hypergraph, found from ``g`` alone.

    Equal to ``connected_components(build_motif_adjacency(g))``, but built
    from the roots of :func:`_motif_roots`, the one search that ``edmot
    components`` counts its report from.
    """
    root = _motif_roots(g)
    members: defaultdict[int, list[int]] = defaultdict(list)
    for u, r in enumerate(root):  # groups appear in order of their smallest id
        members[r].append(u)  # and each gets its members in increasing order
    del root  # each structure is freed once used
    sets = sorted(members.values(), key=len, reverse=True)
    del members
    return ComponentSet(components=tuple(tuple(c) for c in sets if len(c) >= 2),
                        isolated=tuple(c[0] for c in sets if len(c) == 1))


def fragmentation_report(sizes: Iterable[int]) -> dict:
    """Quantify how far the hypergraph split fragments the network.

    ``sizes`` holds the node count of each hypergraph component, an
    isolated node being a component of one: for ``edmot components``,
    ``Counter(_motif_roots(g)).values()``. Reports the component count, a
    size histogram, and how many nodes lost every higher-order connection.
    """
    histogram = Counter(sizes)
    iso = histogram.pop(1, 0)
    n = sum(size * count for size, count in histogram.items()) + iso
    return {
        "node_count": n,
        "component_count": sum(histogram.values()),
        "component_size_histogram": dict(sorted(histogram.items(), reverse=True)),
        "largest_component_size": max(histogram, default=0),
        "isolated_count": iso,
        "isolated_fraction": (iso / n) if n else 0.0,
    }
