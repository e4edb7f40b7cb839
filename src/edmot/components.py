"""Connected components and isolated nodes of the motif hypergraph."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Graph, connected_node_sets


@dataclass(frozen=True)
class ComponentSet:
    """Hypergraph components (each with >= 2 nodes) plus the isolated nodes.

    The components are the frozensets of :func:`connected_node_sets`, kept
    as built: sorted by node count descending, ties broken by smallest member
    id. Together with ``isolated`` they partition the node set.
    """
    components: tuple[frozenset[int], ...]
    isolated: frozenset[int]

    @property
    def component_count(self) -> int:
        return len(self.components)


def connected_components(h: Graph) -> ComponentSet:
    """Split a weighted graph into largest-first components and isolated nodes."""
    sets = connected_node_sets(h)
    return ComponentSet(components=tuple(c for c in sets if len(c) >= 2),
                        isolated=frozenset(u for c in sets if len(c) == 1 for u in c))


def fragmentation_report(cs: ComponentSet) -> dict:
    """Quantify how far the hypergraph split ``cs`` fragments the network.

    Reports the component count, a size histogram, and how many nodes lost
    every higher-order connection.
    """
    histogram = Counter(len(c) for c in cs.components)
    iso = len(cs.isolated)
    n = sum(map(len, cs.components)) + iso
    return {
        "node_count": n,
        "component_count": cs.component_count,
        "component_size_histogram": dict(sorted(histogram.items(), reverse=True)),
        "largest_component_size": max(histogram, default=0),
        "isolated_count": iso,
        "isolated_fraction": (iso / n) if n else 0.0,
    }
