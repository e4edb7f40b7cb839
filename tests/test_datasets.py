"""Checks against the real benchmark networks (skipped when data/ is empty)."""

import pytest

from edmot.components import connected_components
from edmot.graph import build_motif_adjacency, graph_stats, largest_connected_component
from edmot.partition import louvain, modularity


class TestIngestionStats:
    def test_polbooks_size(self, load_raw_dataset):
        g, _ = load_raw_dataset("polbooks")
        stats = graph_stats(g)
        assert stats["n"] == 105
        assert stats["m"] == 441

    def test_cora_size(self, load_raw_dataset):
        g, _ = load_raw_dataset("cora")
        stats = graph_stats(g)
        assert stats["n"] == 2708
        # the raw citation list is directed; canonicalization may merge
        # reciprocal pairs, so only bound the undirected count
        assert 5000 <= stats["m"] <= 5429

    def test_polblogs_node_count(self, load_raw_dataset):
        g, _ = load_raw_dataset("polblogs")
        assert graph_stats(g)["n"] == 1490


class TestHypergraphShape:
    def test_cora_fragments(self, load_dataset):
        g, _, _ = load_dataset("cora")
        cs = connected_components(build_motif_adjacency(g))
        assert cs.component_count > 1
        assert len(cs.isolated) > 0

    def test_email_eu_core_stays_whole(self, load_dataset):
        g, _, _ = load_dataset("email-Eu-core")
        cs = connected_components(build_motif_adjacency(g))
        assert cs.component_count == 1
        assert len(cs.isolated) == 0

    def test_polblogs_fragments(self, load_dataset):
        g, _, _ = load_dataset("polblogs")
        cs = connected_components(build_motif_adjacency(g))
        assert cs.component_count >= 1
        assert len(cs.isolated) > 0


class TestUnlabeledNetworks:
    def test_power_louvain_modularity_floor(self, load_raw_dataset):
        g, _ = load_raw_dataset("power")
        g, _ = largest_connected_component(g)
        q = modularity(g, louvain(g, 0))
        assert q >= 0.5
