"""Acceptance suite: one test per shipping criterion, each printing a
PASS / FAIL / SKIP line (run with ``pytest tests/test_acceptance.py -s``).

Criteria 3, 4c, and 5 exercise the real benchmark networks and skip when
data/ has not been populated by scripts/fetch_datasets.py; criterion 5 also
runs offline, on graphs generated in the test.
"""

from __future__ import annotations

import importlib.util
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from edmot.cli import main as cli_main
from edmot.components import connected_components
from edmot.graph import Graph, build_motif_adjacency, write_edge_list
from edmot.metrics import nmi, pairwise_f_score
from edmot.partition import Partition, louvain, louvain_with_history, modularity
from edmot.pipeline import (clique_edge_set, detect_communities,
                            partition_components_to_modules, rewire_network)
from util import (best_partition_bruteforce, block_graph, brute_force_motif_adjacency,
                  component_cuts, enumerate_triangles, gnp, has_edge, triangle_block_graph,
                  weight)

# externally reported score anchors used as tolerance neighborhoods
REFERENCE_NMI = {
    ("polblogs", "plain"): 0.2684,
    ("polblogs", "edmot"): 0.3464,
    ("cora", "plain"): 0.3996,
    ("cora", "edmot"): 0.4088,
}
POLBOOKS_LOUVAIN_Q = 0.4833


@contextmanager
def criterion(num: int, title: str):
    label = f"[acceptance] criterion {num} ({title})"
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"{label}: {status}")
        raise
    print(f"{label}: PASS")


def random_battery(count=100, seed=7, n_lo=5, n_hi=50):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(0.05, 0.5)
        yield gnp(n, p, rng)


def test_criterion_1_triangle_oracle_equivalence():
    with criterion(1, "triangle oracle equivalence on 100 random graphs"):
        t0 = time.perf_counter()
        checked = 0
        for g in random_battery():
            assert build_motif_adjacency(g) == brute_force_motif_adjacency(g)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 100
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_2_motif_adjacency_invariants():
    with criterion(2, "motif adjacency invariants"):
        named = [
            Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)]),
            Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            Graph.from_pairs(6, [(0, i) for i in range(1, 6)]),
            Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        ]
        for g in list(random_battery(count=40, seed=13)) + named:
            h = build_motif_adjacency(g)
            assert h.node_count == g.node_count
            for u in range(h.node_count):
                assert u not in h.neighbors[u], "zero diagonal"
                for v, w in zip(h.neighbors[u], h.edge_weights[u]):
                    assert weight(h, v, u) == w, "symmetry"
            for u, v, w in h.edges():
                assert w > 0 and has_edge(g, u, v), "co-occurrence implies adjacency"
            tri_count = sum(1 for _ in enumerate_triangles(g))
            assert h.total_weight == 3 * tri_count


def test_criterion_3_fragmentation_cora(load_dataset):
    with criterion(3, "hypergraph fragmentation: cora fragments"):
        g, _, _ = load_dataset("cora")
        cs = connected_components(build_motif_adjacency(g))
        assert cs.component_count > 1
        assert len(cs.isolated) > 0


def test_criterion_3_fragmentation_email_eu_core(load_dataset):
    with criterion(3, "hypergraph fragmentation: email-Eu-core stays whole"):
        g, _, _ = load_dataset("email-Eu-core")
        cs = connected_components(build_motif_adjacency(g))
        assert cs.component_count == 1


def test_criterion_4a_modularity_monotone_per_pass():
    with criterion(4, "a: per-pass modularity monotone"):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(6, 40)
            g = gnp(n, rng.uniform(0.1, 0.5), rng)
            if g.edge_count == 0:
                continue
            _, history = louvain_with_history(g, rng.randint(0, 999))
            assert all(b >= a for a, b in zip(history, history[1:]))


def test_criterion_4b_louvain_near_exhaustive_optimum():
    with criterion(4, "b: within 0.05 of the exhaustive optimum (n <= 8)"):
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            n = rng.randint(4, 8)
            g = gnp(n, rng.uniform(0.3, 0.8), rng)
            if g.edge_count == 0:
                continue
            best_q, _ = best_partition_bruteforce(g)
            got_q = modularity(g, louvain(g, checked))
            assert got_q >= best_q - 0.05, f"{got_q} vs optimum {best_q}"
            checked += 1


def test_criterion_4c_polbooks_louvain_modularity(load_dataset):
    with criterion(4, "c: polbooks Louvain modularity 0.4833 +/- 0.03"):
        g, _, _ = load_dataset("polbooks")
        t0 = time.perf_counter()
        part = louvain(g, 0)
        elapsed = time.perf_counter() - t0
        q = modularity(g, part)
        print(f"  polbooks Louvain Q = {q:.4f} in {elapsed:.3f}s")
        assert abs(q - POLBOOKS_LOUVAIN_Q) <= 0.03
        assert elapsed < 1.0


def _mean_nmi_over_runs(g, truth, method, runs=20):
    """Seeded-run NMI means for plain Louvain and the edge-enhanced pipeline."""
    values = []
    slowest = 0.0
    for seed in range(runs):
        t0 = time.perf_counter()
        if method == "plain":
            part = louvain(g, seed)
        else:
            part, _ = detect_communities(g, "edmot", k=1, seed=seed)
        slowest = max(slowest, time.perf_counter() - t0)
        values.append(nmi(part, truth))
    return statistics.fmean(values), slowest


@pytest.mark.parametrize("dataset,strict", [("polblogs", True), ("cora", False)])
def test_criterion_5_improvement_ordering(load_dataset, dataset, strict):
    with criterion(5, f"improvement ordering on {dataset} (20 runs, K=1)"):
        g, _, truth = load_dataset(dataset)
        plain_mean, plain_slowest = _mean_nmi_over_runs(g, truth, "plain")
        edmot_mean, edmot_slowest = _mean_nmi_over_runs(g, truth, "edmot")
        print(f"  {dataset}: Louvain NMI {plain_mean:.4f}, "
              f"EdMot-Louvain NMI {edmot_mean:.4f}")
        if strict:
            assert edmot_mean > plain_mean
        else:
            assert edmot_mean >= plain_mean
        assert abs(plain_mean - REFERENCE_NMI[(dataset, "plain")]) <= 0.08
        assert abs(edmot_mean - REFERENCE_NMI[(dataset, "edmot")]) <= 0.08
        assert max(plain_slowest, edmot_slowest) < 30.0


@pytest.mark.parametrize("graph_seed", range(3))
@pytest.mark.parametrize("family", ["triangle-blocks", "sbm"])
def test_criterion_5_offline_ordering(family, graph_seed):
    # offline stand-ins, 20 blocks of 50 nodes: EdMot K=1 beats plain Louvain
    # where each block is a union of triangles, and loses on an SBM whose
    # triangles are incidental, so a change in either direction shows
    with criterion(5, f"offline ordering on {family} graph {graph_seed} (K=1)"):
        rng = random.Random(graph_seed)
        if family == "triangle-blocks":
            g = triangle_block_graph(20, 50, triangles=60, cross=6, rng=rng)
        else:
            g = block_graph(20, 50, within=8, cross=4, rng=rng)
        truth = Partition.from_labels(u // 50 for u in range(g.node_count))
        score = {method: nmi(detect_communities(g, method, k=1, seed=0)[0], truth)
                 for method in ("plain", "edmot")}
        print(f"  Louvain NMI {score['plain']:.4f}, EdMot-Louvain NMI {score['edmot']:.4f}")
        if family == "triangle-blocks":
            assert score["edmot"] > score["plain"]
        else:
            assert score["plain"] > score["edmot"]


def test_criterion_6_structural_invariants():
    with criterion(6, "rewiring structural invariants"):
        rng = random.Random(47)
        ran_with_modules = 0
        for trial in range(12):
            n = rng.randint(10, 40)
            g = gnp(n, rng.uniform(0.1, 0.35), rng)
            if g.edge_count == 0:
                continue
            k = rng.randint(1, 3)
            part, trace = detect_communities(g, "edmot", k=k, seed=trial)
            h = build_motif_adjacency(g)
            cs = connected_components(h)
            topk = list(cs.components[:k])
            modules = partition_components_to_modules(component_cuts(h, topk), louvain, trial)
            assert trace.modules == modules
            rewired = rewire_network(g, clique_edge_set(trace.modules))
            assert set(g.edge_pairs()) <= set(rewired.edge_pairs()), "edge superset"
            assert rewired.node_count == g.node_count, "node set preserved"
            assert trace.rewired_edge_count == rewired.edge_count
            assert part == louvain(rewired, trial), "partitions the rewired network"
            for mod in modules:
                ms = sorted(mod)
                for i, u in enumerate(ms):
                    for v in ms[i + 1:]:
                        assert has_edge(rewired, u, v), "module induces a clique"
            ran_with_modules += bool(modules)
            part2, _ = detect_communities(g, "edmot", k=k, seed=trial)
            assert part == part2, "determinism"
        assert ran_with_modules > 0

        # degeneracy: triangle-free input makes the pipeline the plain partitioner
        star = Graph.from_pairs(8, [(0, i) for i in range(1, 8)])
        ring = Graph.from_pairs(6, [(i, (i + 1) % 6) for i in range(6)])
        for g in (star, ring):
            part, trace = detect_communities(g, "edmot", k=2, seed=3)
            assert trace.module_count == 0
            assert part == louvain(g, 3)


def test_criterion_7_metric_properties():
    with criterion(7, "metric properties and hand-derived values"):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(3, 20)
            a = Partition.from_labels(rng.randrange(4) for _ in range(n))
            b = Partition.from_labels(rng.randrange(4) for _ in range(n))
            # label-permutation invariance
            perm = list(range(a.community_count))
            rng.shuffle(perm)
            a2 = Partition.from_labels(perm[x] for x in a.assignment)
            assert abs(nmi(a2, b) - nmi(a, b)) < 1e-12
            assert abs(pairwise_f_score(a2, b) - pairwise_f_score(a, b)) < 1e-12
            # symmetry
            assert abs(nmi(a, b) - nmi(b, a)) < 1e-12
            # identity
            assert nmi(a, a) == 1.0
            assert pairwise_f_score(a, a) == 1.0 or a.community_count == n
        # frozen hand-derived cases
        p = Partition.from_labels([0, 0, 0, 1])
        t = Partition.from_labels([0, 0, 1, 1])
        assert abs(pairwise_f_score(p, t) - 0.4) < 1e-12
        crossed_a = Partition.from_labels([0, 0, 1, 1])
        crossed_b = Partition.from_labels([0, 1, 0, 1])
        assert nmi(crossed_a, crossed_b) == 0.0


def _write_bench_inputs(tmp_path):
    rng = random.Random(71)
    g1 = gnp(20, 0.3, rng)
    (tmp_path / "alpha.edges").write_text(write_edge_list(g1))
    (tmp_path / "alpha.labels").write_text(
        "".join(f"{u} {'x' if u < 10 else 'y'}\n" for u in range(20)))
    g2 = gnp(16, 0.35, rng)
    (tmp_path / "beta.edges").write_text(write_edge_list(g2))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "alpha": {"edges": "alpha.edges", "labels": "alpha.labels"},
        "beta": {"edges": "beta.edges"},
    }))
    return manifest


def test_criterion_8_bench_determinism(tmp_path):
    with criterion(8, "byte-identical bench CSVs for a fixed base seed"):
        manifest = _write_bench_inputs(tmp_path)
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        args = ["bench", "--manifest", str(manifest), "--runs", "4", "--seed", "3"]
        assert cli_main(args + ["--output", str(out1)]) == 0
        assert cli_main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def _scaling_script():
    """``scripts/triangle_scaling.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "triangle_scaling", Path(__file__).resolve().parents[1] / "scripts/triangle_scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_criterion_9_enumeration_scaling(monkeypatch):
    with criterion(9, "triangle enumeration log-log slope <= 1.7"):
        script = _scaling_script()
        monkeypatch.setattr(sys, "argv", ["triangle_scaling.py",
                                          "--sizes", "1000", "10000", "100000"])
        assert script.main() == 0


@pytest.mark.parametrize("power, code", [(1, 0), (2, 1)])
def test_scaling_script_gates_on_the_budget(monkeypatch, capsys, power, code):
    # a stand-in kernel that takes m**power on the script's clock, which only
    # the kernel advances: slope 1 passes, 2 fails, on any machine load
    script = _scaling_script()
    clock = [0.0]

    def kernel(g):
        clock[0] += 0.06 * (g.edge_count / 800) ** power
        return build_motif_adjacency(g)

    monkeypatch.setattr(script, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(script, "build_motif_adjacency", kernel)
    monkeypatch.setattr(sys, "argv", ["triangle_scaling.py", "--sizes", "200", "400", "800",
                                      "--repeats", "1"])
    assert script.main() == code
    assert ("FAIL" in capsys.readouterr().out) == bool(code)
