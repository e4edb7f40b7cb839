"""Clustering agreement metrics: NMI and the pairwise F-score."""

from __future__ import annotations

import math
from collections import Counter

from .partition import Partition


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
