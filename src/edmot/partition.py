"""Modularity, the Louvain partitioner, and the pluggable-partitioner contract.

Any callable ``(Graph, seed) -> Partition`` that returns a total assignment
satisfies the partitioner contract; :func:`louvain` is the shipped
implementation.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import signal
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Iterable, NoReturn, Sequence

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


def modularity(g: Graph, p: Partition,
               modules: Sequence[Collection[int]] | None = None) -> float:
    """Weighted modularity of a partition: intra-community edge weight versus
    the degree-preserving random expectation.

    Uses weighted degrees; equals 0 for the all-in-one partition and
    ``-sum(k_i^2) / (4 mu^2)`` for the all-singletons partition. With
    ``modules``, the modularity on the rewired network of ``g`` (see
    :func:`louvain_with_history`), computed without building it.
    """
    if len(p.assignment) != g.node_count:
        raise ValueError(
            f"partition covers {len(p.assignment)} nodes, graph has {g.node_count}")
    net = _level_zero(g, modules)
    mu = net.total_weight
    if mu <= 0:
        raise ValueError("modularity undefined for graphs with zero total edge weight")
    labels = p.assignment
    c = p.community_count
    internal = [0.0] * c
    tot = [0.0] * c
    # each edge once, from its lower endpoint, in Graph.edges() order
    for u, lu in enumerate(labels):
        nbs, wts = net.adj[u]
        for i in range(bisect_right(nbs, u), len(nbs)):
            if labels[nbs[i]] == lu:
                internal[lu] += wts[i]
    for members in net.cliques:
        for lab, k in Counter(labels[u] for u in members).items():
            internal[lab] += k * (k - 1) // 2
    for u, deg in enumerate(net.degs):
        tot[labels[u]] += deg
    two_mu = 2.0 * mu
    return sum(internal[i] / mu - (tot[i] / two_mu) ** 2 for i in range(c))


# One coarsening level's adjacency: per node, its neighbour list and the
# matching weight list. Level 0 shares rows with the graph, which must never
# be mutated.
Adjacency = list[tuple[list[int], list[float]]]


@dataclass(frozen=True)
class _LevelZero:
    """The network a Louvain run starts from.

    A rewired network is held as ``adj``, its unit-weight edges that leave
    their module, plus ``cliques``, the modules of two or more nodes whose
    pairs are all joined.
    """
    adj: Adjacency
    degs: list[float]
    total_weight: float
    cliques: list[list[int]]


def _level_zero(g: Graph, modules: Sequence[Collection[int]] | None) -> _LevelZero:
    """``g`` as it is without ``modules``; with them, the rewired network of
    ``g``: its edges, each of weight 1, plus every pair inside a module."""
    if modules is None:
        return _LevelZero(list(zip(g.neighbors, g.edge_weights)),
                          list(map(math.fsum, g.edge_weights)), g.total_weight, [])
    cliques = [sorted(mod) for mod in modules if len(mod) > 1]
    module_of = [-1] * g.node_count
    for i, members in enumerate(cliques):
        if not (0 <= members[0] and members[-1] < g.node_count):
            raise ValueError(f"module {i} has nodes out of range for {g.node_count} nodes")
        for u in members:
            if module_of[u] == i:
                raise ValueError(f"node {u} is listed twice in module {i}")
            if module_of[u] >= 0:
                raise ValueError(f"node {u} lies in more than one module")
            module_of[u] = i
    rows = []
    degs = []
    entries = 0
    for u, nbs in enumerate(g.neighbors):
        m = module_of[u]
        if m >= 0:
            nbs = [v for v in nbs if module_of[v] != m]
        rows.append(nbs)
        degs.append(float(len(nbs) + (len(cliques[m]) - 1 if m >= 0 else 0)))
        entries += len(nbs)
    # every row of one length gets the same list of 1.0s
    ones = {d: [1.0] * d for d in set(map(len, rows))}
    adj: Adjacency = [(nbs, ones[len(nbs)]) for nbs in rows]
    edges = entries // 2 + sum(len(c) * (len(c) - 1) // 2 for c in cliques)
    return _LevelZero(adj, degs, float(edges), cliques)


def _community_weights(row: tuple[list[int], list[float]], comm: list[int],
                       ) -> dict[int, float]:
    """Weight from one node into each adjacent community, in neighbour order."""
    links: dict[int, float] = {}
    get = links.get
    for v, w in zip(*row):
        cv = comm[v]
        links[cv] = get(cv, 0.0) + w
    return links


def _one_level(adj: Adjacency, degs: list[float], two_mu: float, rng: random.Random,
               cliques: list[list[int]]) -> list[int]:
    """Greedy local moves on one coarsening level.

    Sweeps nodes in a seed-shuffled fixed order, moving each to the adjacent
    community with the largest strictly positive modularity gain (ties go to
    the lowest community label), until a full sweep gains no more than
    ``MIN_MODULARITY_GAIN``.

    The first sweep sums each node's community weights from scratch. Later
    sweeps read them from a per-node table that each move updates for the
    moved node's neighbours; with integer weights whose sums stay below
    2**53 they are the same as from scratch, bit for bit. These sweeps pass
    over a node whose score for staying is above its whole weight into
    other communities: no other community scores above its weight, so the
    node cannot move. Only a move into or out of the node's community
    changes what that test reads, so until one is made the node is passed
    over without the test.

    A node in one of the ``cliques`` (level 0 of a rewired network) also
    weighs 1 towards every other member: its module's per-community member
    counts, which each move updates, stand in for those edges. They are
    added to the node's scores as they are computed, without a merged copy,
    and the communities it reaches only through its module are scanned by
    falling member count until one is below the best score so far: that
    one and all after it score below it.

    No shortcut changes the partition: every score computed is the same
    float a full scan gives, and the winner does not depend on scan order,
    since ties go to the lowest label and never displace staying.
    """
    n = len(adj)
    comm = list(range(n))
    # per clique node, its module's member count per community, and buckets,
    # where buckets[k] holds the communities with k members
    members_in: list[tuple] = [(None, None)] * n
    for members in cliques:
        module = (dict.fromkeys(members, 1), [set(), set(members)])
        for u in members:
            members_in[u] = module
    tot = list(degs)
    order = list(range(n))
    rng.shuffle(order)
    table: list[dict[int, float]] | None = None
    # ver[c]: the number of the last move into or out of community c; stamp[u]:
    # ver[comm[u]] when the no-move bound last passed u over
    ver = [0] * n
    stamp = [-1] * n
    moves = 0
    while True:
        sweep_gain = 0.0
        for u in order:
            cu = comm[u]
            if stamp[u] == ver[cu]:
                continue
            ku = degs[u]
            links = table[u] if table is not None else _community_weights(adj[u], comm)
            counts, buckets = members_in[u]
            inside = links.get(cu, 0.0)
            if counts is not None:
                inside = inside + counts[cu] - 1.0  # u itself is no neighbour
            stay = inside - (tot[cu] - ku) * ku / two_mu
            # no other community scores above its weight, and those weights
            # sum to at most ku - inside: a stay above that cannot be beaten.
            # Leaving out the tot[cu] -= ku, += ku round trip keeps tot exact,
            # since every sum is an integer below 2**53.
            if table is not None and stay > ku - inside:
                stamp[u] = ver[cu]
                continue
            tot[cu] -= ku
            best_c = cu
            best_score = stay
            for c, weight in links.items():
                if c == cu:
                    continue
                if counts is not None and c in counts:
                    weight += counts[c]
                score = weight - tot[c] * ku / two_mu
                # a tie goes to the lower label but never displaces staying put
                if score > best_score or (score == best_score and cu != best_c > c):
                    best_score = score
                    best_c = c
            if counts is not None:
                # module members in communities u has no edge into, by falling
                # count; one with k < best_score scores below k, so neither it
                # nor any after it can win or tie
                for k in range(len(buckets) - 1, 0, -1):
                    if k < best_score:
                        break
                    for c in buckets[k]:
                        if c == cu or c in links:
                            continue
                        score = k - tot[c] * ku / two_mu
                        if score > best_score or (score == best_score and cu != best_c > c):
                            best_score = score
                            best_c = c
            tot[best_c] += ku
            if best_c != cu:
                comm[u] = best_c
                sweep_gain += 2.0 * (best_score - stay) / two_mu
                moves += 1
                ver[cu] = ver[best_c] = moves
                if counts is not None:
                    k = counts.pop(cu)
                    buckets[k].remove(cu)
                    if k > 1:
                        counts[cu] = k - 1
                        buckets[k - 1].add(cu)
                    k = counts.get(best_c, 0)
                    buckets[k].discard(best_c)
                    counts[best_c] = k + 1
                    if k + 1 == len(buckets):
                        buckets.append(set())
                    buckets[k + 1].add(best_c)
                if table is not None:
                    for v, w in zip(*adj[u]):
                        row = table[v]
                        left = row[cu] - w
                        if left:
                            row[cu] = left
                        else:
                            del row[cu]
                        row[best_c] = row.get(best_c, 0.0) + w
        if sweep_gain <= MIN_MODULARITY_GAIN:
            break
        if table is None:
            table = [_community_weights(row, comm) for row in adj]
    return comm


def _aggregate(adj: Adjacency, loops: list[float], comm: list[int], remap: dict[int, int],
               cliques: list[list[int]]) -> tuple[Adjacency, list[float], list[float]]:
    """Coarsen communities into supernodes, folding internal weight into loops.

    Loop weight stores the full within-community adjacency mass (both
    directions of every internal edge), so supernode degrees and the total
    2*mu are preserved across levels. Each supernode's neighbours are listed
    in first-seen order, the pairs inside ``cliques`` after ``adj``'s edges.
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
    for members in cliques:
        counts = Counter(sup[u] for u in members).items()
        for a, ka in counts:
            new_loops[a] += ka * (ka - 1)
            row = rows[a]
            for b, kb in counts:
                if b != a:
                    row[b] = row.get(b, 0.0) + ka * kb
    new_adj = [(list(row), list(row.values())) for row in rows]
    new_degs = [new_loops[c] + sum(new_adj[c][1]) for c in range(cn)]
    return new_adj, new_loops, new_degs


def _restart(net: _LevelZero, seed: int, attempt: int) -> tuple[Partition, list[float]]:
    """Restart ``attempt`` of a Louvain call: a full multilevel run from its own sweep order.

    After each level it appends the modularity of the composed node-level
    partition, read from the next level's loops and degrees instead of
    summed over level 0: with integer weights, the terms and order of
    :func:`modularity`, so its float.
    """
    adj, degs, cliques = net.adj, net.degs, net.cliques
    n = len(adj)
    loops = [0.0] * n
    two_mu = 2.0 * net.total_weight
    rng = random.Random(seed * 1_000_003 + attempt)
    node_comm = list(range(n))
    # the all-singletons modularity, summed term for term as modularity() does
    history = [sum(-(d / two_mu) ** 2 for d in degs)]
    for _level in range(MAX_LEVELS):
        comm = _one_level(adj, degs, two_mu, rng, cliques)
        remap: dict[int, int] = {}
        for c in comm:
            remap.setdefault(c, len(remap))
        # no node moved: a move empties a singleton, and none is refilled
        if len(remap) == len(comm):
            break
        node_comm = [remap[comm[sup]] for sup in node_comm]
        adj, loops, degs = _aggregate(adj, loops, comm, remap, cliques)
        cliques = []
        # supernodes are labelled in node_comm's first-appearance order; a
        # loop is twice the internal weight, exactly, and 2x/2y == x/y
        q = sum(lp / two_mu - (d / two_mu) ** 2 for lp, d in zip(loops, degs))
        history.append(q)
        if q - history[-2] <= MIN_MODULARITY_GAIN:
            break
    return Partition.from_labels(node_comm), history


# Level-0 size, adjacency entries plus clique pairs, from which the restarts
# run in forked workers. On 2 CPUs (Python 3.11.7, networkx imported, medians
# of 15 alternating in-process and forked calls, two rounds, on planted
# graphs of degree 8 inside 50-node blocks and 2 across) a fork adds 6-9 ms a
# call: karate's 156 entries took 7.6-11.3 ms forked, 1.7-2.5 ms in-process.
# Forked calls took 1.37-1.46 times the in-process 26-45 ms at 4,000
# entries, broke even between 5,000 and 8,000, and took 0.59-0.70 times the
# in-process 154-222 ms at 15,000-20,000. The threshold stays above the break-even:
# every Louvain call of a benchmark op is larger (planted-5k's smallest, a
# module call, has 16,500-18,800 entries), so a lower one could not be shown
# to pay.
POOL_MIN_SIZE = 15_000


def _worker_count(net: _LevelZero) -> int:
    """How many processes run the restarts; 1 means in-process.

    Workers are forked only where that is safe and pays: the process may use
    more than one CPU, no other thread runs (forking a threaded process can
    deadlock the child), it is not a daemonic ``multiprocessing`` process
    (which its parent may terminate, skipping the clean-up that reaps its
    workers), and the network reaches ``POOL_MIN_SIZE``.
    """
    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    size = (sum(len(nbs) for nbs, _ in net.adj)
            + sum(len(c) * (len(c) - 1) // 2 for c in net.cliques))
    if size < POOL_MIN_SIZE:
        return 1
    return min(RESTARTS, len(os.sched_getaffinity(0)))


def _forked_runs(net: _LevelZero, seed: int, workers: int,
                 ) -> list[tuple[Partition, list[float]]]:
    """Every restart's run, in attempt order, from ``workers`` forked children.

    The children inherit ``(net, seed)`` and share one pipe, filled
    with the attempt numbers before the first fork, from which each takes one
    byte at a time: a child that finishes early takes the next attempt. Each
    sends back what :func:`_work` pickles. A worker's exception is raised
    here; so is a RuntimeError if a worker ends without a result. Every child
    is reaped on every path, and the ones still running when this leaves on
    an error are killed first.
    """
    attempts, fill = os.pipe()
    os.write(fill, bytes(range(RESTARTS)))  # a few bytes: the pipe never blocks
    os.close(fill)
    pids: list[int] = []
    results: list = []  # the read end of each child's result pipe
    reaped = 0
    try:
        for _ in range(workers):
            read, write = os.pipe()
            results.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(attempts, write, net, seed)
                pids.append(pid)
            finally:
                os.close(write)
        runs: dict[int, tuple[Partition, list[float]]] = {}
        for pid, pipe in zip(pids, results):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if not data:
                raise RuntimeError(f"a Louvain restart worker ended without a result "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
            out = pickle.loads(data)
            if isinstance(out, Exception):
                raise out
            runs.update(out)
        return [runs[attempt] for attempt in range(RESTARTS)]
    finally:
        os.close(attempts)
        for pipe in results:
            pipe.close()
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(attempts: int, result: int, net: _LevelZero, seed: int) -> NoReturn:
    """A forked worker: runs the attempts it takes from ``attempts``, writes
    the pickled ``(attempt, run)`` list, or the exception that stopped it, to
    ``result``, and exits without returning to the caller's code.

    An exception that does not survive pickling is sent as a RuntimeError
    with its type name and text.
    """
    try:
        try:
            runs = []
            while attempt := os.read(attempts, 1):
                runs.append((attempt[0], _restart(net, seed, attempt[0])))
            data = pickle.dumps(runs)
        except Exception as exc:
            try:
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(result, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def louvain_with_history(g: Graph, seed: int = 0,
                         modules: Sequence[Collection[int]] | None = None,
                         ) -> tuple[Partition, list[float]]:
    """Louvain with the per-pass modularity trajectory of the winning restart.

    Each history starts at the all-singletons modularity and appends the
    modularity of the composed node-level partition after every coarsening
    pass; it is non-decreasing by construction. Across restarts the
    best-modularity result wins, earliest restart on ties, so the outcome is
    a pure function of (graph, seed). On a large enough network the restarts
    run in worker processes forked directly (see :func:`_forked_runs`), which
    take restart numbers from one shared pipe as they free up and send back
    their runs; the caller holds only the network, the pipes and the pickled
    results, and reaps every worker before returning or raising. That
    changes nothing but the time and where the memory is held. So do the
    shortcuts of :func:`_one_level` and :func:`_restart`: sums kept up to
    date instead of redone, and moves that cannot win left unscored.

    Raises ValueError for an empty graph, for a zero total edge weight, and
    unless every edge weight is an integer and twice their total is below
    2**53: only such weights sum to the same float in any order, and, being
    at least 1, they keep every score from overflowing or underflowing.

    With ``modules``, disjoint node sets, it partitions the rewired network
    of ``g`` instead: ``g``'s edges with every weight set to 1, plus an edge
    between every two nodes of a module. Partition and history equal those
    of a run on that network built explicitly, without building it. An empty
    ``modules`` list still sets every weight to 1.
    """
    if g.node_count == 0:
        raise ValueError("cannot partition an empty graph")
    net = _level_zero(g, modules)
    if net.total_weight <= 0:
        raise ValueError("cannot partition a graph with zero total edge weight")
    # aggregated weights are sums of level-0 weights, so integers if those are
    if not (2.0 * net.total_weight < 2.0 ** 53
            and all(all(map(float.is_integer, wts)) for _, wts in net.adj)):
        raise ValueError("Louvain takes only integer edge weights whose doubled total "
                         "is below 2**53")
    workers = _worker_count(net)
    if workers > 1:
        runs = _forked_runs(net, seed, workers)
    else:
        runs = (_restart(net, seed, attempt) for attempt in range(RESTARTS))
    # max keeps the first of equal maxima: the earliest best restart
    return max(runs, key=lambda run: run[1][-1])


def louvain(g: Graph, seed: int = 0,
            modules: Sequence[Collection[int]] | None = None) -> Partition:
    """Greedy multilevel modularity maximization.

    Deterministic for a fixed (graph, seed); the result's modularity is never
    below the all-singletons baseline. ``modules`` is as in
    :func:`louvain_with_history`.
    """
    part, _ = louvain_with_history(g, seed, modules)
    return part
