"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a planted-partition graph (a stochastic block model with an
exact edge count per block). Nodes carry shuffled external tokens and edges
are written in shuffled order, so the parser's first-appearance renumbering
never lines up with the planted blocks; the label file uses the same tokens,
which is what keeps ``--labels`` aligned after renumbering. The same
(workload, seed) always yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str          # "detect" or "components"
    blocks: int
    block_size: int
    within_degree: int       # mean within-block degree
    cross_degree: int        # mean cross-block degree

    @property
    def node_count(self) -> int:
        return self.blocks * self.block_size


# Why each workload exists is recorded in README.md; in short:
WORKLOADS = {w.name: w for w in (
    # Louvain-dominated detect with planted truth, so speed and NMI both show.
    Workload("planted-5k", "detect", blocks=50, block_size=100,
             within_degree=8, cross_degree=4),
    # About 6000 hypergraph components and no partitioner: the bypass workload.
    Workload("fragmented-60k", "components", blocks=6000, block_size=10,
             within_degree=6, cross_degree=2),
)}


def planted_edges(w: Workload, rng: random.Random) -> list[tuple[int, int]]:
    """Distinct edges, exactly ``node_count * degree / 2`` within and across blocks.

    Node ``i`` is in block ``i // block_size``.
    """
    size = w.block_size
    local_pairs = list(combinations(range(size), 2))
    per_block = size * w.within_degree // 2
    edges = []
    for b in range(w.blocks):
        base = b * size
        edges.extend((base + i, base + j) for i, j in rng.sample(local_pairs, per_block))
    n = w.node_count
    cross: set[tuple[int, int]] = set()
    target = n * w.cross_degree // 2
    while len(cross) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u // size != v // size:
            cross.add((u, v) if u < v else (v, u))
    edges.extend(sorted(cross))
    rng.shuffle(edges)
    return edges


def write_inputs(w: Workload, seed: int, directory: Path) -> str:
    """Write ``edges.txt`` and ``labels.txt`` for (workload, seed).

    Returns the sha256 of the two files' bytes, in that order.
    """
    rng = random.Random(f"{w.name}:{seed}")
    tokens = list(range(w.node_count))
    rng.shuffle(tokens)
    edges = planted_edges(w, rng)
    edge_text = "".join(f"v{tokens[u]} v{tokens[v]}\n" for u, v in edges).encode()
    label_text = "".join(
        f"v{tok} b{node // w.block_size}\n"
        for tok, node in sorted((tok, node) for node, tok in enumerate(tokens))).encode()
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "edges.txt").write_bytes(edge_text)
    (directory / "labels.txt").write_bytes(label_text)
    return hashlib.sha256(edge_text + label_text).hexdigest()


if __name__ == "__main__":
    import sys

    name, seed, directory = sys.argv[1:]
    print(write_inputs(WORKLOADS[name], int(seed), Path(directory)))
