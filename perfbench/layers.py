"""Per-layer spans recorded around calls into edmot, from outside the package.

While :meth:`LayerTrace.installed` is active, the public functions that the
CLI and the pipeline call are replaced, in the namespaces that call them, by
wrappers that time each call and count what it returned. The partitioner is
swapped for a wrapper around ``louvain_with_history`` through the pipeline's
partitioner plug point; it returns the same partition as the default
``louvain``, so a traced op computes exactly what an untraced op computes.

Times are inclusive: ``pipeline.modules_s`` contains
``partition.modules_louvain_s``, and ``components.report_s`` contains the
``components.split_s`` of the split it performs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from unittest import mock

from edmot import cli, components, pipeline
from edmot.partition import louvain_with_history

# Counters always reported, zero when the op never calls the layer.
COUNTS = ("graph.nodes", "graph.edges", "motif.hyperedges", "motif.triangles",
          "components.count", "components.isolated", "pipeline.module_count",
          "pipeline.clique_edges", "pipeline.rewired_edges", "partition.calls",
          "partition.levels")
SPANS = ("graph.parse", "graph.lcc", "motif.adjacency", "components.split",
         "components.report", "pipeline.modules", "pipeline.clique_edges",
         "pipeline.rewire", "partition.modules_louvain", "partition.final",
         "metrics.evaluate", "cli.report")


def _graph_counts(out):
    g, _keep = out
    return {"graph.nodes": g.node_count, "graph.edges": g.edge_count}


def _hypergraph_counts(h):
    return {"motif.hyperedges": h.edge_count, "motif.triangles": h.total_weight / 3}


def _component_counts(cs):
    return {"components.count": cs.component_count, "components.isolated": len(cs.isolated)}


# (namespace, attribute, span name, counter extractor)
PATCHES = (
    (cli, "parse_edge_list", "graph.parse", None),
    (cli, "largest_connected_component", "graph.lcc", _graph_counts),
    (cli, "build_motif_adjacency", "motif.adjacency", _hypergraph_counts),
    (pipeline, "build_motif_adjacency", "motif.adjacency", _hypergraph_counts),
    (components, "connected_components", "components.split", _component_counts),
    (pipeline, "connected_components", "components.split", _component_counts),
    (cli, "fragmentation_report", "components.report", None),
    (pipeline, "partition_components_to_modules", "pipeline.modules",
     lambda modules: {"pipeline.module_count": len(modules)}),
    (pipeline, "clique_edge_set", "pipeline.clique_edges",
     lambda pairs: {"pipeline.clique_edges": len(pairs)}),
    (pipeline, "rewire_network", "pipeline.rewire",
     lambda g: {"pipeline.rewired_edges": g.edge_count}),
    (cli, "evaluate", "metrics.evaluate", None),
    (cli.json, "dumps", "cli.report", None),
    (cli, "_write_output", "cli.report", None),
)


class LayerTrace:
    """Span times and counters of one traced op, kept in memory."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[str] = []

    def _span(self, name, fn, counter):
        def traced(*args, **kwargs):
            self._open.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self._open.pop()
            if counter is not None:
                for key, value in counter(out).items():
                    self.counts[key] += value
            return out
        return traced

    def partitioner(self, g, cfg):
        """Partitioner plug-in: ``louvain`` with its time and level count recorded."""
        t0 = time.perf_counter()
        part, history = louvain_with_history(g, cfg)
        caller = "modules_louvain" if "pipeline.modules" in self._open else "final"
        self.seconds[f"partition.{caller}"] += time.perf_counter() - t0
        self.counts["partition.calls"] += 1
        self.counts["partition.levels"] += len(history) - 1
        return part

    @contextmanager
    def installed(self):
        detect = cli.detect_communities
        with ExitStack() as stack:
            for namespace, attr, name, counter in PATCHES:
                original = getattr(namespace, attr)
                stack.enter_context(mock.patch.object(
                    namespace, attr, self._span(name, original, counter)))
            stack.enter_context(mock.patch.object(
                cli, "detect_communities",
                lambda *args, **kwargs: detect(*args, partitioner=self.partitioner, **kwargs)))
            yield self

    def metrics(self) -> dict[str, float]:
        out = {f"{name}_s": self.seconds[name] for name in SPANS}
        out.update((name, self.counts[name]) for name in COUNTS)
        edges = self.counts["graph.edges"]
        rewired = self.counts["pipeline.rewired_edges"]
        out["pipeline.clique_growth"] = rewired / edges if rewired and edges else 0.0
        return out
