import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmot.graph import Graph
from edmot.cli import evaluate
from edmot.metrics import nmi, pairwise_f_score
from edmot.partition import Partition, modularity
from edmot.pipeline import PipelineTrace, detect_communities
from util import f_score_reference, nmi_reference


def parts(*label_lists):
    return [Partition.from_labels(ls) for ls in label_lists]


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(2, 12))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return Partition.from_labels(a), Partition.from_labels(b)


class TestNmi:
    def test_identity_is_one(self):
        p, = parts([0, 0, 1, 1, 2])
        assert nmi(p, p) == 1.0

    def test_single_cluster_vs_balanced_two_is_zero(self):
        p, t = parts([0, 0, 0, 0], [0, 0, 1, 1])
        assert nmi(p, t) == 0.0

    def test_both_trivial_is_one(self):
        p, t = parts([0, 0, 0], [5, 5, 5])
        assert nmi(p, t) == 1.0

    def test_crossed_pairs_have_zero_information(self):
        # {0,1 | 2,3} against {0,2 | 1,3}: every contingency cell is 1,
        # so mutual information vanishes
        p, t = parts([0, 0, 1, 1], [0, 1, 0, 1])
        assert nmi(p, t) == 0.0
        assert nmi_reference(p, t) == 0.0

    def test_node_set_mismatch_rejected(self):
        p, t = parts([0, 0], [0, 0, 1])
        with pytest.raises(ValueError, match="different node sets"):
            nmi(p, t)

    @settings(max_examples=100)
    @given(partition_pairs())
    def test_matches_reference_and_symmetric(self, pair):
        p, t = pair
        v = nmi(p, t)
        assert v == pytest.approx(nmi_reference(p, t), abs=1e-12)
        assert v == pytest.approx(nmi(t, p), abs=1e-12)
        assert 0.0 <= v <= 1.0


class TestPairwiseF:
    def test_identity_is_one(self):
        p, = parts([0, 1, 1, 2, 2])
        assert pairwise_f_score(p, p) == 1.0

    def test_all_singletons_score_zero(self):
        p, t = parts([0, 1, 2, 3], [0, 0, 1, 1])
        assert pairwise_f_score(p, t) == 0.0

    def test_hand_derived_two_fifths(self):
        # prediction {0,1,2 | 3} vs truth {0,1 | 2,3}: TP=1 of 3 predicted
        # and 2 true pairs, so P=1/3, R=1/2, F=0.4
        p, t = parts([0, 0, 0, 1], [0, 0, 1, 1])
        assert abs(pairwise_f_score(p, t) - 0.4) < 1e-12

    def test_symmetric_under_argument_swap(self):
        # the harmonic mean cancels the precision/recall swap: the score
        # reduces to 2*TP / (pairs_p + pairs_t), identical in both orders
        p, t = parts([0, 0, 0, 1], [0, 0, 1, 1])
        assert pairwise_f_score(p, t) == pairwise_f_score(t, p)

    def test_node_set_mismatch_rejected(self):
        p, t = parts([0, 0], [0, 0, 1])
        with pytest.raises(ValueError, match="different node sets"):
            pairwise_f_score(p, t)

    @settings(max_examples=100)
    @given(partition_pairs())
    def test_matches_pair_enumeration_reference(self, pair):
        p, t = pair
        v = pairwise_f_score(p, t)
        assert v == pytest.approx(f_score_reference(p, t), abs=1e-12)
        assert 0.0 <= v <= 1.0


class TestInvariances:
    @settings(max_examples=60)
    @given(partition_pairs(), st.randoms(use_true_random=False))
    def test_label_permutation_invariance(self, pair, rng):
        p, t = pair
        relabel = list(range(p.community_count))
        rng.shuffle(relabel)
        p2 = Partition.from_labels(relabel[lab] for lab in p.assignment)
        assert nmi(p2, t) == pytest.approx(nmi(p, t), abs=1e-12)
        assert pairwise_f_score(p2, t) == pytest.approx(
            pairwise_f_score(p, t), abs=1e-12)

    @settings(max_examples=60)
    @given(partition_pairs(), st.randoms(use_true_random=False))
    def test_node_permutation_invariance(self, pair, rng):
        p, t = pair
        perm = list(range(len(p)))
        rng.shuffle(perm)
        p2 = Partition.from_labels(p.assignment[i] for i in perm)
        t2 = Partition.from_labels(t.assignment[i] for i in perm)
        assert nmi(p2, t2) == pytest.approx(nmi(p, t), abs=1e-12)
        assert pairwise_f_score(p2, t2) == pytest.approx(
            pairwise_f_score(p, t), abs=1e-12)


class TestEvaluate:
    def _graph(self):
        return Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2)])

    def test_without_truth_metrics_absent(self):
        # a plain run's trace: the network is not rewired, so nothing scores on it
        g = self._graph()
        trace = PipelineTrace(original_edge_count=g.edge_count)
        rep = evaluate("toy", "Louvain", Partition.from_labels([0, 0, 1, 1]), g, trace=trace)
        assert rep["nmi"] is None and rep["f_score"] is None
        assert rep["modularity_rewired"] is None and rep["trace"] == trace.to_dict()
        assert isinstance(rep["modularity_original"], float)
        assert rep["community_count"] == 2

    def test_perfect_prediction_scores_one(self):
        g = self._graph()
        truth = Partition.from_labels([0, 0, 1, 1])
        rep = evaluate("toy", "Louvain", truth, g, truth=truth, trace=PipelineTrace())
        assert rep["nmi"] == 1.0 and rep["f_score"] == 1.0

    def test_rewired_modularity_reported(self):
        # the report takes the trace's score as it is and rescores nothing
        # on the rewired network; there is no report without a trace
        g = self._graph()
        part = Partition.from_labels([0, 0, 1, 1])
        trace = PipelineTrace(modules=[(1, 3)], modularity_rewired=0.125)
        rep = evaluate("toy", "EdMot-Louvain", part, g, trace=trace)
        assert rep["modularity_rewired"] == 0.125
        assert rep["modularity_original"] == modularity(g, part)
        with pytest.raises(TypeError, match="trace"):
            evaluate("toy", "EdMot-Louvain", part, g)

    def test_coverage_violation_rejected(self):
        with pytest.raises(ValueError, match="covers"):
            evaluate("toy", "Louvain", Partition.from_labels([0, 0]), self._graph(),
                     trace=PipelineTrace())

    def test_to_dict_round_trips_fields(self):
        # key order is the order of the detect JSON report
        g = self._graph()
        part, trace = detect_communities(g, "edmot", k=2, seed=7)
        rep = evaluate("toy", "EdMot-Louvain", part, g, k=2, seed=7, trace=trace,
                       wall_time=0.5)
        assert list(rep) == ["dataset", "method", "k", "seed", "nmi", "f_score",
                             "modularity_original", "modularity_rewired",
                             "community_count", "trace", "wall_time"]
        assert rep["dataset"] == "toy" and rep["k"] == 2 and rep["seed"] == 7
        assert rep["wall_time"] == 0.5
        assert list(rep["trace"]) == ["component_count", "isolated_count", "module_count",
                                      "clique_edge_count", "original_edge_count",
                                      "rewired_edge_count", "stage_seconds"]
        assert rep["trace"] == trace.to_dict()
        assert rep["trace"]["stage_seconds"] is not trace.stage_seconds
