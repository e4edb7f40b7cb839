"""Clustering agreement metrics (NMI, pairwise F-score) and run reports."""

from __future__ import annotations

import math
from collections import Counter

from .graph import Graph
from .partition import Partition, modularity
from .pipeline import PipelineTrace


def _check_comparable(p: Partition, truth: Partition) -> int:
    if len(p) != len(truth):
        raise ValueError(
            f"partitions cover different node sets ({len(p)} vs {len(truth)} nodes)")
    if len(p) == 0:
        raise ValueError("metrics undefined for empty partitions")
    return len(p)


def nmi(p: Partition, truth: Partition) -> float:
    """Normalized mutual information, 2*I / (H(p) + H(truth)), natural logs.

    Exactly 1.0 when the clusterings coincide up to relabeling (including
    the degenerate both-single-cluster case); 0.0 whenever the mutual
    information vanishes, e.g. one trivial and one informative partition.
    """
    n = _check_comparable(p, truth)
    joint = Counter(zip(p.assignment, truth.assignment))
    pa = Counter(p.assignment)
    pb = Counter(truth.assignment)
    if len(joint) == len(pa) == len(pb):
        # permutation contingency: the clusterings are identical, and NMI is
        # exactly 1 (float summation would land epsilon short)
        return 1.0
    h_p = -sum((c / n) * math.log(c / n) for c in pa.values())
    h_t = -sum((c / n) * math.log(c / n) for c in pb.values())
    mi = sum((c / n) * math.log(c * n / (pa[i] * pb[j]))
             for (i, j), c in joint.items())
    if mi <= 0.0:
        return 0.0
    return min(1.0, 2.0 * mi / (h_p + h_t))


def pairwise_f_score(p: Partition, truth: Partition) -> float:
    """F-score over unordered node pairs.

    A pair counts as true positive when co-clustered in both partitions;
    precision divides by pairs co-clustered in ``p``, recall by pairs
    co-clustered in ``truth``. Returns 0 when either denominator is 0.
    The harmonic mean makes this variant symmetric in its arguments
    (it reduces to 2*TP / (pairs_p + pairs_truth)).
    """
    _check_comparable(p, truth)
    joint = Counter(zip(p.assignment, truth.assignment))
    tp = sum(c * (c - 1) // 2 for c in joint.values())
    if tp == 0:
        return 0.0
    pred_pairs = sum(c * (c - 1) // 2 for c in Counter(p.assignment).values())
    true_pairs = sum(c * (c - 1) // 2 for c in Counter(truth.assignment).values())
    precision = tp / pred_pairs
    recall = tp / true_pairs
    return 2.0 * precision * recall / (precision + recall)


def evaluate(dataset: str, method: str, result: Partition, g: Graph,
             truth: Partition | None = None, *, k: int = 1, seed: int = 0,
             trace: PipelineTrace | None = None, wall_time: float = 0.0) -> dict:
    """Report for one run, as the dict ``detect`` writes.

    ``nmi`` and ``f_score`` are None unless ground-truth labels were supplied;
    ``modularity_rewired`` is None unless the trace carries the modules of a
    rewired network.
    """
    if len(result) != g.node_count:
        raise ValueError(
            f"partition covers {len(result)} nodes, graph has {g.node_count}")
    modules = trace.modules if trace is not None else None
    return {
        "dataset": dataset,
        "method": method,
        "k": k,
        "seed": seed,
        "nmi": nmi(result, truth) if truth is not None else None,
        "f_score": pairwise_f_score(result, truth) if truth is not None else None,
        "modularity_original": modularity(g, result),
        "modularity_rewired": (modularity(g, result, modules)
                               if modules is not None else None),
        "community_count": result.community_count,
        "trace": trace.to_dict() if trace is not None else None,
        "wall_time": wall_time,
    }
