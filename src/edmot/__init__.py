"""Motif-aware community detection via clique edge enhancement.

Pipeline: build the triangle co-occurrence hypergraph, partition its top-K
connected components into modules, complete each module into a clique, union
those edges into the original network, and partition the rewired result.
"""

from .components import (ComponentSet, connected_components, fragmentation_report,
                         motif_components)
from .graph import (EdgeListError, Graph, LabelMap, build_motif_adjacency, graph_stats,
                    induced_subgraph, largest_connected_component, parse_edge_list,
                    parse_label_file, write_edge_list)
from .metrics import nmi, pairwise_f_score
from .partition import Partition, louvain, louvain_with_history, modularity
from .pipeline import PipelineError, PipelineTrace, detect_communities

__version__ = "0.1.0"

__all__ = [
    "ComponentSet", "EdgeListError", "Graph", "LabelMap", "Partition",
    "PipelineError", "PipelineTrace", "build_motif_adjacency",
    "connected_components", "detect_communities", "fragmentation_report",
    "graph_stats", "induced_subgraph", "largest_connected_component", "louvain",
    "louvain_with_history", "modularity", "motif_components", "nmi",
    "pairwise_f_score", "parse_edge_list", "parse_label_file", "write_edge_list",
]
