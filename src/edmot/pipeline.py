"""The edge-enhancement detection pipeline.

Stages: motif adjacency -> hypergraph components -> top-K module partitioning
-> final partition of the rewired network, whose module cliques the built-in
Louvain reads from the module list without building them. The motif-only
baseline, which partitions the hypergraph directly, runs the first two
stages of the same sequence. :func:`detect_communities` runs every stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Callable, Collection, Sequence

from .components import connected_components
from .graph import Graph, build_motif_adjacency, induced_subgraph
from .partition import Partition, Partitioner, _level_zero, louvain

METHODS = ("plain", "motif", "edmot")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass
class PipelineTrace:
    """Per-run diagnostics: fragmentation shape, module/edge counts, timings."""
    component_count: int = 0
    isolated_count: int = 0
    module_count: int = 0
    clique_edge_count: int = 0
    original_edge_count: int = 0
    rewired_edge_count: int = 0
    stage_seconds: dict = field(default_factory=dict)
    # the modules completed into cliques (edmot only, possibly none), each a
    # tuple of node ids in increasing order; with the input graph they define
    # the rewired network; not serialized
    modules: list[tuple[int, ...]] | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "modules"}
        out["stage_seconds"] = dict(self.stage_seconds)
        return out


def partition_components_to_modules(cuts: list[tuple[Graph, list[int]]],
                                    partitioner: Partitioner = louvain, seed: int = 0,
                                    ) -> list[tuple[int, ...]]:
    """Partition each selected hypergraph component independently into modules.

    ``cuts`` lists each component's induced weighted subgraph with its map
    back to original ids, as :func:`induced_subgraph` returns them. The list
    is emptied as it is read, so each subgraph is freed once its modules are
    read. Each module is a tuple of original ids in increasing order; modules
    from different components are disjoint by construction.
    """
    modules: list[tuple[int, ...]] = []
    cuts.reverse()
    for idx in range(len(cuts)):
        sub, back = cuts.pop()
        part = _partition(sub, partitioner, seed, where=f" on component {idx}")
        members: list[list[int]] = [[] for _ in range(part.community_count)]
        for local, label in enumerate(part.assignment):  # back is increasing
            members[label].append(back[local])
        modules.extend(map(tuple, members))
    return modules


def clique_edge_set(modules: Sequence[Collection[int]]) -> set[tuple[int, int]]:
    """All unordered node pairs within each module (the clique edges)."""
    pairs: set[tuple[int, int]] = set()
    for mod in modules:
        pairs.update(combinations(sorted(mod), 2))
    return pairs


def rewire_network(g: Graph, edge_set: set[tuple[int, int]]) -> Graph:
    """Union of the original edges with the clique edges, all weights 1.

    Pairs must be canonical, (u, v) with u < v, as :func:`clique_edge_set`
    emits them: a reversed copy of an edge raises ValueError naming the
    duplicate, as do out-of-range and self pairs. The node set is unchanged;
    original edge weights are overridden to 1 (unweighted union semantics).
    """
    return Graph.from_pairs(g.node_count, sorted(edge_set.union(g.edge_pairs())))


def _partition(g: Graph, partitioner: Partitioner, seed: int,
               modules: list[tuple[int, ...]] | None = None, where: str = "") -> Partition:
    """Every partitioner call: ``g``, or with ``modules`` its rewired network,
    which only a partitioner other than :func:`louvain` gets built. Enforces
    the contract that every node is assigned; with ``where`` (a component's
    place in the error text) it also wraps the partitioner's own errors."""
    try:
        if partitioner is louvain:
            part = louvain(g, seed, modules)
        elif modules is None:
            part = partitioner(g, seed)
        else:
            part = partitioner(rewire_network(g, clique_edge_set(modules)), seed)
    except Exception as exc:
        if not where:
            raise
        raise PipelineError(f"partitioner failed{where}: {exc}") from exc
    if len(part.assignment) != g.node_count:
        raise PipelineError(f"partitioner violated the contract{where}: "
                            f"assigned {len(part.assignment)} of {g.node_count} nodes")
    return part


def _staged(trace: PipelineTrace, name: str, fn: Callable):
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        raise PipelineError(f"stage '{name}': {exc}") from exc
    trace.stage_seconds[name] = time.perf_counter() - t0
    return out


def detect_communities(g: Graph, method: str = "edmot", k: int = 1, seed: int = 0,
                       partitioner: Partitioner = louvain,
                       ) -> tuple[Partition, PipelineTrace]:
    """One detection run; returns (partition, trace).

    ``plain`` partitions ``g``, and its trace records only the final
    partition stage. ``motif``, the motif-only baseline, partitions the
    triangle hypergraph: nodes isolated in it end up as singletons, and an
    edgeless hypergraph yields all singletons. ``edmot`` partitions the
    hypergraph's top-``k`` components into modules, completes each module
    into a clique, unions those edges into the network with every weight 1,
    and partitions the rewired result; its trace carries the modules in
    ``trace.modules``. A triangle-free input yields no modules, so ``edmot``
    partitions ``g`` with unit weights.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "edmot" and k < 1:
        raise ValueError(f"K must be at least 1, got {k}")
    if g.node_count == 0:
        raise ValueError("cannot run the pipeline on an empty graph")
    graph, modules = g, None
    trace = PipelineTrace(original_edge_count=g.edge_count)
    if method != "plain":
        h = _staged(trace, "motif_adjacency", lambda: build_motif_adjacency(g))
        cs = _staged(trace, "components", lambda: connected_components(h))
        trace.component_count = cs.component_count
        trace.isolated_count = len(cs.isolated)
    if method == "motif":
        if h.edge_count == 0:
            trace.stage_seconds["final_partition"] = 0.0
            return Partition.from_labels(range(g.node_count)), trace
        graph = h
    elif method == "edmot":
        def cut_modules():
            nonlocal h, cs
            cuts = [induced_subgraph(h, comp) for comp in cs.components[:k]]
            # the module calls read only the cuts, and the final partition
            # only g and the modules
            h = cs = None
            return partition_components_to_modules(cuts, partitioner, seed)
        modules = _staged(trace, "modules", cut_modules)
        trace.modules = modules
        trace.module_count = len(modules)
        trace.clique_edge_count = sum(len(mod) * (len(mod) - 1) // 2 for mod in modules)
        # counted on the network the final Louvain call starts from
        trace.rewired_edge_count = int(_level_zero(g, modules).total_weight)
    return _staged(trace, "final_partition",
                   lambda: _partition(graph, partitioner, seed, modules)), trace
