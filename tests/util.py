"""Shared test helpers: random-graph builders and independent oracles.

The oracles here are deliberately naive (triple scans, exhaustive set
partitions, O(n^2) pair enumeration) so they share no code path with the
implementations they check. The exceptions are earlier forms of package code
that its faster forms must match exactly: :func:`enumerate_triangles` lists
triangles by degree-ordered orientation, :func:`motif_adjacency_reference`
counts them into a dict of sorted triples, :func:`parse_edge_list_reference`
sorts tuple keys, :func:`parse_unweighted_per_line` reads an unweighted edge
list one line at a time, :func:`parse_label_file_reference` splits the whole text
at once, :func:`induced_subgraph_reference` filters the parent's
edge stream, :func:`louvain_reference` is the plain form of the
package's Louvain, and :func:`explicit_rewired_louvain` builds the rewired
network that the package's Louvain reads from a module list.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from itertools import combinations
from typing import Collection, Iterator, Sequence

from edmot.components import connected_components, fragmentation_report
from edmot.graph import (COMMENT_PREFIXES, EdgeListError, Graph, LabelMap, build_motif_adjacency,
                         induced_subgraph)
from edmot.partition import (MAX_LEVELS, MIN_MODULARITY_GAIN, RESTARTS, Partition,
                             louvain_with_history, modularity)
from edmot.pipeline import clique_edge_set, rewire_network


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Bernoulli random graph; fine for small n."""
    pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_pairs(n, pairs)


def block_graph(blocks: int, size: int, within: int, cross: int, rng: random.Random) -> Graph:
    """Planted blocks: exactly ``size * within / 2`` edges inside each block
    and ``blocks * size * cross / 2`` edges between blocks."""
    n = blocks * size
    local = list(combinations(range(size), 2))
    pairs = {(b + i, b + j) for b in range(0, n, size)
             for i, j in rng.sample(local, size * within // 2)}
    return _with_cross_edges(pairs, n, size, cross, rng)


def triangle_block_graph(blocks: int, size: int, triangles: int, cross: int,
                         rng: random.Random) -> Graph:
    """Planted blocks, each the union of ``triangles`` random triangles on its
    nodes, and ``blocks * size * cross / 2`` edges between blocks: the
    communities carry motif structure, as EdMot assumes."""
    n = blocks * size
    pairs: set[tuple[int, int]] = set()
    for b in range(0, n, size):
        for _ in range(triangles):
            i, j, k = sorted(rng.sample(range(b, b + size), 3))
            pairs.update(((i, j), (i, k), (j, k)))
    return _with_cross_edges(pairs, n, size, cross, rng)


def _with_cross_edges(pairs: set[tuple[int, int]], n: int, size: int, cross: int,
                      rng: random.Random) -> Graph:
    """The graph of ``pairs`` and ``n * cross / 2`` more distinct random pairs
    whose ends lie in different blocks of ``size`` nodes."""
    wanted, available = n * cross // 2, n * (n - size) // 2
    if wanted > available:  # drawing could never stop
        raise ValueError(f"{wanted} cross-block edges wanted, but {n} nodes in blocks "
                         f"of {size} have {available} cross-block pairs")
    target = len(pairs) + wanted
    while len(pairs) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u // size != v // size:
            pairs.add((min(u, v), max(u, v)))
    return Graph.from_pairs(n, sorted(pairs))


def weighted_block_graph(rng: random.Random, kind: str) -> Graph:
    """A :func:`block_graph` of 100-400 nodes whose weights are all 1
    (``unit``) or drawn from 1-5 (``integer``): large and clustered enough that
    after a Louvain level's first sweep most nodes have nowhere to go."""
    g = block_graph(rng.randint(5, 10), rng.randint(20, 40), rng.randint(6, 12),
                    rng.randint(1, 4), rng)
    draw = {"unit": lambda: 1.0, "integer": lambda: float(rng.randint(1, 5))}[kind]
    return Graph(g.node_count, ((u, v, draw()) for u, v, _ in g.edges()))


def drawn_modules(rng: random.Random, node_count: int) -> list[tuple[int, ...]]:
    """Disjoint modules, tuples of 1-6 shuffled nodes, singletons included;
    some nodes may lie in none."""
    nodes = list(range(node_count))
    rng.shuffle(nodes)
    modules = []
    while nodes and rng.random() < 0.8:
        size = rng.randint(1, 6)
        modules.append(tuple(nodes[:size]))
        nodes = nodes[size:]
    return modules


def component_cuts(h: Graph, comps: Sequence[Sequence[int]]) -> list[tuple[Graph, list[int]]]:
    """Each component's induced subgraph of ``h`` with its id map, the list
    that ``partition_components_to_modules`` reads."""
    return [induced_subgraph(h, comp) for comp in comps]


def graph_reference(node_count: int, edges) -> Graph:
    """``Graph(node_count, edges)`` built by sorting every row and scanning
    it for adjacent duplicates, with the same checks and messages."""
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    nbrs: list[list[int]] = [[] for _ in range(node_count)]
    wts: list[list[float]] = [[] for _ in range(node_count)]
    m = 0
    total = 0.0
    for u, v, w in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        w = float(w)
        if not math.isfinite(w) or w <= 0:
            raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
        nbrs[u].append(v)
        wts[u].append(w)
        nbrs[v].append(u)
        wts[v].append(w)
        m += 1
        total += w
    for u in range(node_count):
        if len(nbrs[u]) > 1:
            order = sorted(range(len(nbrs[u])), key=nbrs[u].__getitem__)
            nbrs[u] = [nbrs[u][i] for i in order]
            wts[u] = [wts[u][i] for i in order]
            for a, b in zip(nbrs[u], nbrs[u][1:]):
                if a == b:
                    raise ValueError(f"duplicate edge between {u} and {a}")
    g = Graph.__new__(Graph)
    g.node_count = node_count
    g.edge_count = m
    g.total_weight = total
    g.neighbors = nbrs
    g.edge_weights = wts
    return g


def assert_identical(g: Graph, ref: Graph) -> None:
    """Every field equal, the total weight included (``Graph ==`` skips it)."""
    assert g == ref
    assert g.edge_count == ref.edge_count
    assert g.total_weight == ref.total_weight


def degree(g: Graph, u: int) -> int:
    return len(g.neighbors[u])


def has_edge(g: Graph, u: int, v: int) -> bool:
    nb = g.neighbors[u]
    i = bisect_left(nb, v)
    return i < len(nb) and nb[i] == v


def weight(g: Graph, u: int, v: int) -> float:
    """Weight of edge {u, v}, or 0.0 if absent."""
    nb = g.neighbors[u]
    i = bisect_left(nb, v)
    if i < len(nb) and nb[i] == v:
        return g.edge_weights[u][i]
    return 0.0


def _forward_triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield each triangle exactly once via degree-ordered edge orientation.

    Nodes are ranked by (degree, id) ascending and every edge oriented
    low-to-high rank; a triangle is reported at its lowest-rank corner as a
    common out-neighbor of the other two. Out-degrees are O(sqrt(m)), so the
    intersection work totals O(m^1.5).
    """
    n = g.node_count
    rank = [0] * n
    for r, u in enumerate(sorted(range(n), key=lambda u: (len(g.neighbors[u]), u))):
        rank[u] = r
    out: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        ru = rank[u]
        out[u] = [v for v in g.neighbors[u] if rank[v] > ru]
    out_sets = [set(o) for o in out]
    for u in range(n):
        ou = out[u]
        su = out_sets[u]
        for v in ou:
            ov = out[v]
            if len(ov) <= len(ou):
                for w in ov:
                    if w in su:
                        yield u, v, w
            else:
                sv = out_sets[v]
                for w in ou:
                    if w in sv:
                        yield u, v, w


def enumerate_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """Every triangle as (i, j, k) with i < j < k, sorted."""
    return sorted(tuple(sorted(t)) for t in _forward_triangles(g))


def count_triangles(g: Graph) -> int:
    """Number of triangles in ``g``, read off the package's hypergraph kernel:
    each triangle adds 1 to each of its three edges."""
    return int(build_motif_adjacency(g).total_weight) // 3


def motif_adjacency_reference(g: Graph) -> Graph:
    """Motif adjacency as a dict of sorted-triple pair counts, built by
    :func:`graph_reference` in first-count order."""
    counts: dict[tuple[int, int], int] = {}
    for u, v, w in _forward_triangles(g):
        a, b, c = sorted((u, v, w))
        for pair in ((a, b), (a, c), (b, c)):
            counts[pair] = counts.get(pair, 0) + 1
    return graph_reference(g.node_count, ((i, j, float(t)) for (i, j), t in counts.items()))


def induced_subgraph_reference(g: Graph, nodes) -> tuple[Graph, list[int]]:
    """``induced_subgraph`` as a membership filter over ``g.edges()``,
    relabelled and built by :func:`graph_reference`."""
    keep = sorted(set(nodes))
    pos = {old: new for new, old in enumerate(keep)}
    kept = ((pos[u], pos[v], w) for u, v, w in g.edges() if u in pos and v in pos)
    return graph_reference(len(keep), kept), keep


def parse_edge_list_reference(text: str) -> tuple[Graph, LabelMap]:
    """``parse_edge_list`` with a strip-then-split line loop, edges
    collected under (u, v) tuple keys and sorted as tuples, and the graph
    built by :func:`graph_reference`."""
    ids: dict[str, int] = {}
    keys: set[tuple[int, int]] = set()
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(
                f"line {lineno}: expected 2 fields, got {len(parts)}: {raw!r}")
        saw_data = True
        u = ids.setdefault(parts[0], len(ids))
        v = ids.setdefault(parts[1], len(ids))
        if u != v:
            keys.add((u, v) if u < v else (v, u))
    if not saw_data:
        raise EdgeListError("no edges found in input")
    g = graph_reference(len(ids), ((u, v, 1.0) for u, v in sorted(keys)))
    return g, LabelMap(list(ids))


def read_weighted_edges(text: str) -> dict[frozenset[str], float]:
    """The edges of a ``u v w`` edge-list text, such as the ``motif``
    export, as {token pair: weight}: each line is split into its three
    columns here, since the package's parser reads no weights."""
    out = {}
    for line in text.splitlines():
        a, b, w = line.split()
        pair = frozenset((a, b))
        assert pair not in out and len(pair) == 2, line
        out[pair] = float(w)
    return out


def parse_unweighted_per_line(text: str) -> tuple[Graph, LabelMap]:
    """The unweighted ``parse_edge_list`` as it was before it read whole
    chunks at once: each line of ``text.splitlines()`` is split on its own,
    its ends get ids by ``setdefault`` and are appended to per-node rows, and
    each row is then sorted, deduped and sliced, with one list of 1.0s per
    degree, so rows, weight lists and their sizes must match exactly."""
    ids: dict[str, int] = {}
    nbrs: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith(COMMENT_PREFIXES):
            continue
        if len(parts) != 2:
            raise EdgeListError(
                f"line {lineno}: expected 2 fields, got {len(parts)}: {raw!r}")
        u = ids.setdefault(parts[0], len(ids))
        v = ids.setdefault(parts[1], len(ids))
        while len(nbrs) < len(ids):
            nbrs.append([])
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    if not ids:
        raise EdgeListError("no edges found in input")
    for u, row in enumerate(nbrs):
        row.sort()
        if len(set(row)) < len(row):
            row = sorted(set(row))
        nbrs[u] = row[:]
    ones = {d: [1.0] * d for d in set(map(len, nbrs))}
    wts = [ones[len(row)] for row in nbrs]
    total = float(sum(map(len, nbrs)) // 2)
    return Graph.__new__(Graph)._set_rows(nbrs, wts, total), LabelMap(list(ids))


def parse_label_file_reference(text: str) -> dict[str, str]:
    """``parse_label_file`` as a strip-then-split loop over
    ``text.splitlines()``, with its own field-count check."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(
                f"line {lineno}: expected 2 fields, got {len(parts)}: {raw!r}")
        if parts[0] in out:
            raise EdgeListError(f"line {lineno}: duplicate label for node {parts[0]!r}")
        out[parts[0]] = parts[1]
    if not out:
        raise EdgeListError("no labels found in input")
    return out


def triangle_triples_scan(g: Graph) -> set[tuple[int, int, int]]:
    """Independent triangle listing by checking every node triple."""
    nbr = [set(ns) for ns in g.neighbors]
    return {(a, b, c) for a, b, c in combinations(range(g.node_count), 3)
            if b in nbr[a] and c in nbr[a] and c in nbr[b]}


def brute_force_motif_adjacency(g: Graph, node_cap: int = 500) -> Graph:
    """Motif adjacency from the triple scan: each pair weighs its triangle count."""
    if g.node_count > node_cap:
        raise ValueError(
            f"graph has {g.node_count} nodes, over the brute-force cap of {node_cap}")
    counts: Counter[tuple[int, int]] = Counter()
    for a, b, c in triangle_triples_scan(g):
        counts.update(((a, b), (a, c), (b, c)))
    return Graph(g.node_count, ((i, j, float(t)) for (i, j), t in counts.items()))


def built_hypergraph_report(g: Graph) -> dict:
    """The fragmentation report of the built hypergraph's split: the oracle
    for the report that ``edmot components`` counts from union-find roots."""
    cs = connected_components(build_motif_adjacency(g))
    return fragmentation_report([*map(len, cs.components), *[1] * len(cs.isolated)])


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each one's ids shifted past the previous ones'."""
    edges, base = [], 0
    for g in graphs:
        edges.extend((base + u, base + v, w) for u, v, w in g.edges())
        base += g.node_count
    return Graph(base, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """``g`` with node u renamed ``perm[u]``."""
    return Graph(g.node_count, ((perm[u], perm[v], w) for u, v, w in g.edges()))


def pair_weight_map(g: Graph) -> dict[tuple[int, int], float]:
    return {(u, v): w for u, v, w in g.edges()}


def set_partitions(n: int):
    """All set partitions of range(n) as label tuples (restricted growth)."""
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def rec(i: int, width: int):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(width + 1):
            labels[i] = lab
            yield from rec(i + 1, width if lab < width else width + 1)

    yield from rec(0, 0)


def best_partition_bruteforce(g: Graph) -> tuple[float, tuple[int, ...]]:
    """Exhaustive-search modularity optimum; only viable for n <= ~9."""
    best_q = -math.inf
    best = None
    for labels in set_partitions(g.node_count):
        q = modularity(g, Partition(labels))
        if q > best_q:
            best_q = q
            best = labels
    assert best is not None
    return best_q, best


def nmi_reference(p: Partition, truth: Partition) -> float:
    """Direct contingency-table NMI with arithmetic-mean normalization."""
    n = len(p.assignment)
    joint = Counter(zip(p.assignment, truth.assignment))
    pa = Counter(p.assignment)
    pb = Counter(truth.assignment)
    hp = -sum(c / n * math.log(c / n) for c in pa.values())
    ht = -sum(c / n * math.log(c / n) for c in pb.values())
    if hp == 0.0 and ht == 0.0:
        return 1.0
    mi = 0.0
    for (a, b), c in joint.items():
        mi += (c / n) * math.log((c * n) / (pa[a] * pb[b]))
    if mi <= 0.0:
        return 0.0
    return 2.0 * mi / (hp + ht)


def f_score_reference(p: Partition, truth: Partition) -> float:
    """Pairwise F by explicit O(n^2) enumeration of node pairs."""
    n = len(p.assignment)
    tp = pred = true = 0
    for u, v in combinations(range(n), 2):
        same_p = p.assignment[u] == p.assignment[v]
        same_t = truth.assignment[u] == truth.assignment[v]
        pred += same_p
        true += same_t
        tp += same_p and same_t
    if tp == 0 or pred == 0 or true == 0:
        return 0.0
    precision = tp / pred
    recall = tp / true
    return 2 * precision * recall / (precision + recall)


def communities_of(p: Partition) -> set[frozenset[int]]:
    """Partition as a labeling-independent set of node sets."""
    return {frozenset(c) for c in p.communities()}


def modularity_reference(g: Graph, p: Partition) -> float:
    """Modularity summed over ``g.edges()``, in the order :func:`modularity` uses."""
    mu = g.total_weight
    labels = p.assignment
    c = p.community_count
    internal = [0.0] * c
    tot = [0.0] * c
    for u, v, w in g.edges():
        if labels[u] == labels[v]:
            internal[labels[u]] += w
    for u in range(g.node_count):
        tot[labels[u]] += math.fsum(g.edge_weights[u])
    two_mu = 2.0 * mu
    return sum(internal[i] / mu - (tot[i] / two_mu) ** 2 for i in range(c))


def _reference_level(nbrs: list[dict[int, float]], degs: list[float], two_mu: float,
                     rng: random.Random) -> tuple[list[int], bool]:
    """Local moves with every community weight summed from scratch at every
    visit and candidates scanned in sorted label order."""
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


def _reference_aggregate(nbrs: list[dict[int, float]], loops: list[float],
                         comm: list[int], remap: dict[int, int]):
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


def louvain_reference(g: Graph, seed: int = 0) -> tuple[Partition, list[float]]:
    """Louvain as ``louvain_with_history`` specifies it, written plainly: dict
    adjacency copied per restart, from-scratch community weights, sorted
    candidate scan and :func:`modularity_reference`."""
    best: tuple[Partition, list[float]] | None = None
    for attempt in range(RESTARTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        n = g.node_count
        nbrs = [dict(zip(g.neighbors[u], g.edge_weights[u])) for u in range(n)]
        loops = [0.0] * n
        degs = list(map(math.fsum, g.edge_weights))
        two_mu = 2.0 * g.total_weight
        node_comm = list(range(n))
        history = [modularity_reference(g, Partition.from_labels(node_comm))]
        for _level in range(MAX_LEVELS):
            comm, moved = _reference_level(nbrs, degs, two_mu, rng)
            if not moved:
                break
            remap: dict[int, int] = {}
            for c in comm:
                remap.setdefault(c, len(remap))
            node_comm = [remap[comm[sup]] for sup in node_comm]
            history.append(modularity_reference(g, Partition.from_labels(node_comm)))
            if history[-1] - history[-2] <= MIN_MODULARITY_GAIN:
                break
            nbrs, loops, degs = _reference_aggregate(nbrs, loops, comm, remap)
        part = Partition.from_labels(node_comm)
        if best is None or history[-1] > best[1][-1]:
            best = (part, history)
    assert best is not None
    return best


def explicit_rewired_louvain(g: Graph, modules: Sequence[Collection[int]], seed: int = 0,
                             ) -> tuple[Graph, Partition, list[float]]:
    """The rewired network built explicitly, by ``rewire_network`` over
    ``clique_edge_set``, and ``louvain_with_history`` run on it."""
    rewired = rewire_network(g, clique_edge_set(modules))
    return (rewired, *louvain_with_history(rewired, seed))
