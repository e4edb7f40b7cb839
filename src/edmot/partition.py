"""Modularity, the Louvain partitioner, and the pluggable-partitioner contract.

Any callable ``(Graph, seed) -> Partition`` that returns a total assignment
satisfies the partitioner contract; :func:`louvain` is the shipped
implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .graph import Graph

MAX_LEVELS = 100            # coarsening levels per restart
MIN_MODULARITY_GAIN = 1e-7  # a sweep or level gaining no more than this ends it
# Whole greedy runs from seed-derived sweep orders, best modularity kept: a
# single run is order-sensitive enough to miss obvious optima on small noisy
# graphs.
RESTARTS = 5


@dataclass(frozen=True)
class Partition:
    """Total assignment of node id -> community label.

    Labels are dense: every label in ``0..community_count-1`` occurs.
    Build instances through :meth:`from_labels`, which compacts arbitrary
    hashable labels in first-appearance order.
    """
    assignment: tuple[int, ...]

    def __post_init__(self):
        seen = set(self.assignment)
        if seen and (min(seen) != 0 or max(seen) != len(seen) - 1):
            raise ValueError("community labels must be compacted to 0..count-1")

    @classmethod
    def from_labels(cls, labels: Iterable[Hashable]) -> "Partition":
        remap: dict = {}
        out = [remap.setdefault(lab, len(remap)) for lab in labels]
        return cls(tuple(out))

    @property
    def community_count(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0

    def communities(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.community_count)]
        for node, lab in enumerate(self.assignment):
            out[lab].add(node)
        return out

    def __len__(self) -> int:
        return len(self.assignment)


Partitioner = Callable[[Graph, int], Partition]


def modularity(g: Graph, p: Partition) -> float:
    """Weighted modularity of a partition: intra-community edge weight versus
    the degree-preserving random expectation.

    Uses weighted degrees; equals 0 for the all-in-one partition and
    ``-sum(k_i^2) / (4 mu^2)`` for the all-singletons partition.
    """
    if len(p.assignment) != g.node_count:
        raise ValueError(
            f"partition covers {len(p.assignment)} nodes, graph has {g.node_count}")
    mu = g.total_weight
    if mu <= 0:
        raise ValueError("modularity undefined for graphs with zero total edge weight")
    labels = p.assignment
    c = p.community_count
    internal = [0.0] * c
    tot = [0.0] * c
    for u, v, w in g.edges():
        if labels[u] == labels[v]:
            internal[labels[u]] += w
    for u in range(g.node_count):
        tot[labels[u]] += g.weighted_degrees[u]
    two_mu = 2.0 * mu
    return sum(internal[i] / mu - (tot[i] / two_mu) ** 2 for i in range(c))


def _one_level(nbrs: list[dict[int, float]], degs: list[float], two_mu: float,
               rng: random.Random) -> tuple[list[int], bool]:
    """Greedy local moves on one coarsening level.

    Sweeps nodes in a seed-shuffled fixed order, moving each to the adjacent
    community with the largest strictly positive modularity gain (ties go to
    the lowest community label), until a full sweep gains no more than
    ``MIN_MODULARITY_GAIN``.
    """
    n = len(nbrs)
    comm = list(range(n))
    tot = list(degs)
    order = list(range(n))
    rng.shuffle(order)
    moved_any = False
    while True:
        moved = False
        sweep_gain = 0.0
        for u in order:
            cu = comm[u]
            ku = degs[u]
            links: dict[int, float] = {}
            for v, w in nbrs[u].items():
                cv = comm[v]
                links[cv] = links.get(cv, 0.0) + w
            tot[cu] -= ku
            stay = links.get(cu, 0.0) - tot[cu] * ku / two_mu
            best_c = cu
            best_score = stay
            for c in sorted(links):
                if c == cu:
                    continue
                score = links[c] - tot[c] * ku / two_mu
                if score > best_score:
                    best_score = score
                    best_c = c
            tot[best_c] += ku
            if best_c != cu:
                comm[u] = best_c
                moved = True
                moved_any = True
                sweep_gain += 2.0 * (best_score - stay) / two_mu
        if not moved or sweep_gain <= MIN_MODULARITY_GAIN:
            break
    return comm, moved_any


def _aggregate(nbrs: list[dict[int, float]], loops: list[float], comm: list[int],
               remap: dict[int, int]) -> tuple[list[dict[int, float]], list[float], list[float]]:
    """Coarsen communities into supernodes, folding internal weight into loops.

    Loop weight stores the full within-community adjacency mass (both
    directions of every internal edge), so supernode degrees and the total
    2*mu are preserved across levels.
    """
    cn = len(remap)
    new_nbrs: list[dict[int, float]] = [dict() for _ in range(cn)]
    new_loops = [0.0] * cn
    for u, nd in enumerate(nbrs):
        cu = remap[comm[u]]
        new_loops[cu] += loops[u]
        row = new_nbrs[cu]
        for v, w in nd.items():
            cv = remap[comm[v]]
            if cv == cu:
                new_loops[cu] += w
            else:
                row[cv] = row.get(cv, 0.0) + w
    new_degs = [new_loops[c] + sum(new_nbrs[c].values()) for c in range(cn)]
    return new_nbrs, new_loops, new_degs


def _louvain_single(g: Graph, rng: random.Random) -> tuple[Partition, list[float]]:
    """One full multilevel optimization with the given sweep-order source."""
    n = g.node_count
    nbrs = [dict(zip(g.neighbors[u], g.edge_weights[u])) for u in range(n)]
    loops = [0.0] * n
    degs = list(g.weighted_degrees)
    two_mu = 2.0 * g.total_weight
    node_comm = list(range(n))
    history = [modularity(g, Partition.from_labels(node_comm))]
    for _level in range(MAX_LEVELS):
        comm, moved = _one_level(nbrs, degs, two_mu, rng)
        if not moved:
            break
        remap: dict[int, int] = {}
        for c in comm:
            remap.setdefault(c, len(remap))
        node_comm = [remap[comm[sup]] for sup in node_comm]
        q = modularity(g, Partition.from_labels(node_comm))
        history.append(q)
        if q - history[-2] <= MIN_MODULARITY_GAIN:
            break
        nbrs, loops, degs = _aggregate(nbrs, loops, comm, remap)
    return Partition.from_labels(node_comm), history


def louvain_with_history(g: Graph, seed: int = 0) -> tuple[Partition, list[float]]:
    """Louvain with the per-pass modularity trajectory of the winning restart.

    Each history starts at the all-singletons modularity and appends the
    modularity of the composed node-level partition after every coarsening
    pass; it is non-decreasing by construction. Across restarts the
    best-modularity result wins, earliest restart on ties, so the outcome is
    a pure function of (graph, seed).
    """
    if g.node_count == 0:
        raise ValueError("cannot partition an empty graph")
    if g.total_weight <= 0:
        raise ValueError("cannot partition a graph with zero total edge weight")
    best: tuple[Partition, list[float]] | None = None
    for attempt in range(RESTARTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        part, history = _louvain_single(g, rng)
        if best is None or history[-1] > best[1][-1]:
            best = (part, history)
    assert best is not None
    return best


def louvain(g: Graph, seed: int = 0) -> Partition:
    """Greedy multilevel modularity maximization.

    Deterministic for a fixed (graph, seed); the result's modularity is never
    below the all-singletons baseline.
    """
    part, _ = louvain_with_history(g, seed)
    return part
