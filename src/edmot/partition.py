"""Modularity, the Louvain partitioner, and the pluggable-partitioner contract.

Any callable ``(Graph, seed) -> Partition`` that returns a total assignment
satisfies the partitioner contract; :func:`louvain` is the shipped
implementation.
"""

from __future__ import annotations

import random
from bisect import bisect_right
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
    # each edge once, from its lower endpoint, in Graph.edges() order
    for u, lu in enumerate(labels):
        nbs = g.neighbors[u]
        wts = g.edge_weights[u]
        for i in range(bisect_right(nbs, u), len(nbs)):
            if labels[nbs[i]] == lu:
                internal[lu] += wts[i]
    for u in range(g.node_count):
        tot[labels[u]] += g.weighted_degrees[u]
    two_mu = 2.0 * mu
    return sum(internal[i] / mu - (tot[i] / two_mu) ** 2 for i in range(c))


# One coarsening level's adjacency: per node, its neighbour list and the
# matching weight list. Level 0 is the graph's own ``neighbors`` and
# ``edge_weights`` rows, which must never be mutated.
Adjacency = list[tuple[list[int], list[float]]]


def _community_weights(row: tuple[list[int], list[float]], comm: list[int],
                       ) -> dict[int, float]:
    """Weight from one node into each adjacent community, in neighbour order."""
    links: dict[int, float] = {}
    get = links.get
    for v, w in zip(*row):
        cv = comm[v]
        links[cv] = get(cv, 0.0) + w
    return links


def _exact_weights(adj: Adjacency, two_mu: float) -> bool:
    """True when every weight is integer-valued and every sum of them is below
    2**53, so community weights come out the same in any summation order."""
    return two_mu < 2.0 ** 53 and all(all(map(float.is_integer, wts)) for _, wts in adj)


def _one_level(adj: Adjacency, degs: list[float], two_mu: float,
               rng: random.Random) -> tuple[list[int], bool]:
    """Greedy local moves on one coarsening level.

    Sweeps nodes in a seed-shuffled fixed order, moving each to the adjacent
    community with the largest strictly positive modularity gain (ties go to
    the lowest community label), until a full sweep gains no more than
    ``MIN_MODULARITY_GAIN``.

    The first sweep sums each node's community weights from scratch. If the
    level's weights are exact (:func:`_exact_weights`), later sweeps read them
    from a per-node table that each move updates for the moved node's
    neighbours; the sums are then the same as from scratch, bit for bit.
    """
    n = len(adj)
    comm = list(range(n))
    tot = list(degs)
    order = list(range(n))
    rng.shuffle(order)
    exact = _exact_weights(adj, two_mu)
    table: list[dict[int, float]] | None = None
    moved_any = False
    while True:
        moved = False
        sweep_gain = 0.0
        for u in order:
            cu = comm[u]
            ku = degs[u]
            links = table[u] if table is not None else _community_weights(adj[u], comm)
            tot[cu] -= ku
            stay = links.get(cu, 0.0) - tot[cu] * ku / two_mu
            best_c = cu
            best_score = stay
            for c, weight in links.items():
                if c == cu:
                    continue
                score = weight - tot[c] * ku / two_mu
                # a tie goes to the lower label but never displaces staying put
                if score > best_score or (score == best_score and cu != best_c > c):
                    best_score = score
                    best_c = c
            tot[best_c] += ku
            if best_c != cu:
                comm[u] = best_c
                moved = True
                moved_any = True
                sweep_gain += 2.0 * (best_score - stay) / two_mu
                if table is not None:
                    for v, w in zip(*adj[u]):
                        row = table[v]
                        left = row[cu] - w
                        if left:
                            row[cu] = left
                        else:
                            del row[cu]
                        row[best_c] = row.get(best_c, 0.0) + w
        if not moved or sweep_gain <= MIN_MODULARITY_GAIN:
            break
        if exact and table is None:
            table = [_community_weights(row, comm) for row in adj]
    return comm, moved_any


def _aggregate(adj: Adjacency, loops: list[float], comm: list[int],
               remap: dict[int, int]) -> tuple[Adjacency, list[float], list[float]]:
    """Coarsen communities into supernodes, folding internal weight into loops.

    Loop weight stores the full within-community adjacency mass (both
    directions of every internal edge), so supernode degrees and the total
    2*mu are preserved across levels. Each supernode's neighbours are listed
    in first-seen order.
    """
    cn = len(remap)
    rows: list[dict[int, float]] = [dict() for _ in range(cn)]
    new_loops = [0.0] * cn
    sup = [remap[c] for c in comm]
    for u, (nbs, wts) in enumerate(adj):
        cu = sup[u]
        new_loops[cu] += loops[u]
        row = rows[cu]
        for v, w in zip(nbs, wts):
            cv = sup[v]
            if cv == cu:
                new_loops[cu] += w
            else:
                row[cv] = row.get(cv, 0.0) + w
    new_adj = [(list(row), list(row.values())) for row in rows]
    new_degs = [new_loops[c] + sum(new_adj[c][1]) for c in range(cn)]
    return new_adj, new_loops, new_degs


def _louvain_single(g: Graph, rng: random.Random, q_singletons: float,
                    ) -> tuple[Partition, list[float]]:
    """One full multilevel optimization with the given sweep-order source;
    ``q_singletons``, the all-singletons modularity, starts the history."""
    n = g.node_count
    adj: Adjacency = list(zip(g.neighbors, g.edge_weights))
    loops = [0.0] * n
    degs = list(g.weighted_degrees)
    two_mu = 2.0 * g.total_weight
    node_comm = list(range(n))
    history = [q_singletons]
    for _level in range(MAX_LEVELS):
        comm, moved = _one_level(adj, degs, two_mu, rng)
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
        adj, loops, degs = _aggregate(adj, loops, comm, remap)
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
    q_singletons = modularity(g, Partition.from_labels(range(g.node_count)))
    best: tuple[Partition, list[float]] | None = None
    for attempt in range(RESTARTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        part, history = _louvain_single(g, rng, q_singletons)
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
