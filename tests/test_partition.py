import math
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edmot import partition
from edmot.graph import Graph
from edmot.partition import RESTARTS, Partition, louvain, louvain_with_history, modularity
from util import (best_partition_bruteforce, block_graph, communities_of, drawn_modules, gnp,
                  louvain_reference, modularity_reference, weighted_block_graph)

TWO_K3 = Graph.from_pairs(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
TWO_K4_BRIDGE = Graph.from_pairs(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                     (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
                                     (3, 4)])


def gnp_or_path(seed, n=8, p=0.4):
    rng = random.Random(seed)
    g = gnp(n, p, rng)
    # a path instead of an edgeless draw, so total weight is positive and Q is
    # defined; other draws may keep isolated nodes
    if g.edge_count == 0:
        return Graph.from_pairs(n, [(u, u + 1) for u in range(n - 1)])
    return g


class TestPartitionType:
    def test_from_labels_compacts_in_first_appearance_order(self):
        p = Partition.from_labels(["b", "a", "b", "c"])
        assert p.assignment == (0, 1, 0, 2)
        assert p.community_count == 3

    def test_non_compact_labels_rejected(self):
        with pytest.raises(ValueError, match="compacted"):
            Partition((0, 2))

    def test_communities_grouping(self):
        p = Partition.from_labels([0, 1, 0, 1])
        assert p.communities() == [{0, 2}, {1, 3}]


class TestModularity:
    def test_single_community_is_zero(self):
        for g in (TWO_K3, TWO_K4_BRIDGE):
            p = Partition.from_labels([0] * g.node_count)
            assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_split_is_half(self):
        p = Partition.from_labels([0, 0, 0, 1, 1, 1])
        assert modularity(TWO_K3, p) == pytest.approx(0.5)

    def test_singleton_closed_form(self):
        for seed in (1, 2, 3):
            g = gnp_or_path(seed, n=12, p=0.3)
            q = modularity(g, Partition.from_labels(range(g.node_count)))
            mu = g.total_weight
            expected = -sum(math.fsum(w) ** 2 for w in g.edge_weights) / (4 * mu * mu)
            assert q == pytest.approx(expected, abs=1e-12)

    def test_weighted_edges_enter_q(self):
        g = Graph(4, [(0, 1, 3.0), (2, 3, 1.0)])
        p = Partition.from_labels([0, 0, 1, 1])
        # internal = total, so Q = 1 - (6/8)^2 - (2/8)^2
        assert modularity(g, p) == pytest.approx(1 - 0.75**2 - 0.25**2)

    def test_zero_weight_rejected(self):
        g = Graph(3, [])
        with pytest.raises(ValueError, match="zero total edge weight"):
            modularity(g, Partition.from_labels([0, 0, 0]))

    def test_coverage_violation_rejected(self):
        with pytest.raises(ValueError, match="covers"):
            modularity(TWO_K3, Partition.from_labels([0, 0, 0]))


class TestLouvain:
    def test_two_cliques_with_bridge_found(self):
        part = louvain(TWO_K4_BRIDGE)
        assert communities_of(part) == {frozenset(range(4)), frozenset(range(4, 8))}
        best_q, best_labels = best_partition_bruteforce(TWO_K4_BRIDGE)
        assert communities_of(Partition(best_labels)) == communities_of(part)
        assert modularity(TWO_K4_BRIDGE, part) == pytest.approx(best_q)

    def test_k3_merges_to_one_community(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        part = louvain(g)
        assert part.community_count == 1
        best_q, _ = best_partition_bruteforce(g)
        assert modularity(g, part) == pytest.approx(best_q)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            louvain(Graph(0, []))

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="zero total edge weight"):
            louvain(Graph(3, []))

    def test_history_monotone_and_beats_singletons(self):
        for seed in range(12):
            g = gnp_or_path(seed, n=14, p=0.25)
            part, history = louvain_with_history(g, seed)
            assert all(b >= a for a, b in zip(history, history[1:]))
            assert modularity(g, part) == history[-1]
            q_single = modularity(g, Partition.from_labels(range(g.node_count)))
            assert modularity(g, part) >= q_single

    def test_keeps_earliest_best_restart(self):
        # on these graphs the restarts disagree, some tie on the best Q, and
        # the winner is not always restart 0
        winners = set()
        for seed in range(6):
            g = gnp_or_path(seed, n=30, p=0.15)
            net = partition._level_zero(g, None)
            runs = [partition._restart(net, seed, attempt) for attempt in range(RESTARTS)]
            finals = [history[-1] for _, history in runs]
            win = finals.index(max(finals))
            winners.add(win)
            assert louvain_with_history(g, seed) == runs[win]
        assert len(winners) > 1

    def test_weights_must_be_integers_with_a_doubled_total_below_2_53(self):
        # only such weights sum to the same float in any order
        g = Graph.from_pairs(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        message = ("Louvain takes only integer edge weights whose doubled total "
                   "is below 2**53")
        half = Graph(6, [(u, v, 0.5 if (u, v) == (2, 3) else w) for u, v, w in g.edges()])
        # seven edges, six of 2**49 and one of 2**50: 2 mu = 2**53
        big = Graph(6, [(u, v, 2.0 ** (50 if (u, v) == (2, 3) else 49))
                        for u, v, _ in g.edges()])
        assert 2.0 * big.total_weight == 2.0 ** 53
        for bad in (half, big):
            with pytest.raises(ValueError) as info:
                louvain_with_history(bad)
            assert str(info.value) == message
        # a power of two scales every term of Q exactly, so below the bound
        # partition and history stay the same
        for exp in (1, 10, 40, 49):
            scaled = Graph(6, ((u, v, w * 2.0 ** exp) for u, v, w in g.edges()))
            assert louvain_with_history(scaled) == louvain_with_history(g)

    def test_deterministic_for_fixed_seed(self):
        g = gnp_or_path(41, n=20, p=0.2)
        assert louvain(g, 9) == louvain(g, 9)

    def test_near_optimal_on_tiny_graphs(self):
        # heuristic slack: within 0.05 of the exhaustive optimum
        for seed in range(15):
            rng = random.Random(1000 + seed)
            n = rng.randint(4, 8)
            g = gnp_or_path(2000 + seed, n=n, p=0.5)
            best_q, _ = best_partition_bruteforce(g)
            assert modularity(g, louvain(g)) >= best_q - 0.05

    def test_edge_weights_steer_the_optimum(self):
        # a heavy (0,1) edge flips the optimal split relative to the
        # unweighted topology; found by exhaustive search over both
        pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5),
                 (3, 4), (3, 5), (4, 5)]
        weights = [9.0] + [1.0] * 9
        gw = Graph(6, ((u, v, w) for (u, v), w in zip(pairs, weights)))
        gu = Graph.from_pairs(6, pairs)
        _, best_w = best_partition_bruteforce(gw)
        _, best_u = best_partition_bruteforce(gu)
        assert communities_of(Partition(best_w)) != communities_of(Partition(best_u))
        assert communities_of(louvain(gw)) == communities_of(Partition(best_w))
        assert communities_of(louvain(gu)) == communities_of(Partition(best_u))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31))
    def test_weighted_graphs_handled(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        base = gnp_or_path(seed, n=n, p=0.5)
        g = Graph(n, ((u, v, float(rng.randint(1, 5))) for u, v, _ in base.edges()))
        part, history = louvain_with_history(g)
        assert len(part) == n
        assert all(b >= a for a, b in zip(history, history[1:]))


def weighted_random_graph(seed, kind):
    """A random graph whose weights are all 1, small integers or fractions."""
    rng = random.Random(seed)
    base = gnp_or_path(seed, n=rng.randint(2, 30), p=rng.uniform(0.1, 0.6))
    draw = {"unit": lambda: 1.0,
            "integer": lambda: float(rng.randint(1, 5)),
            "fractional": lambda: rng.uniform(0.1, 3.0)}[kind]
    return Graph(base.node_count, ((u, v, draw()) for u, v, _ in base.edges()))


def symmetric_copies_graph(seed):
    """Two or three copies of a small graph, each joined to one hub node by
    the same edge, with weights from a few small integers: moves tie exactly."""
    rng = random.Random(seed)
    k = rng.randint(3, 7)
    base = gnp_or_path(seed, n=k, p=rng.uniform(0.4, 0.9))
    weight = {(u, v): rng.choice([1.0, 2.0, 3.0, 6.0, 7.0, 11.0]) for u, v, _ in base.edges()}
    copies = rng.randint(2, 3)
    edges = [(u + c * k, v + c * k, w) for c in range(copies) for (u, v), w in weight.items()]
    hub, joint, w = copies * k, rng.randrange(k), rng.choice([1.0, 3.0, 7.0])
    edges += [(joint + c * k, hub, w) for c in range(copies)]
    return Graph(hub + 1, edges)


class TestExactDifferential:
    """The fast Louvain and modularity against the plain reference, with ``==``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from(["unit", "integer"]))
    def test_louvain_matches_reference(self, seed, kind):
        g = weighted_random_graph(seed, kind)
        if g.total_weight > 0:
            assert louvain_with_history(g, seed % 5) == louvain_reference(g, seed % 5)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from(["unit", "integer"]))
    # found among 2,000 graphs: on the first three a node the no-move bound
    # passed over must be tested again after a move into its community; on
    # the last three, once it moves, its memo must not match its new
    # community, as it could if each community counted its own moves
    @example(150, "unit")
    @example(195, "integer")
    @example(251, "integer")
    @example(896, "unit")
    @example(1552, "unit")
    @example(1668, "unit")
    def test_louvain_matches_reference_on_planted_blocks(self, seed, kind):
        # after a level's first sweep most of these nodes provably cannot move
        # and are skipped; the reference scores every node in every sweep
        g = weighted_block_graph(random.Random(seed), kind)
        assert louvain_with_history(g, seed % 5) == louvain_reference(g, seed % 5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.integers(0, 4))
    def test_louvain_matches_reference_on_symmetric_copies(self, graph_seed, seed):
        # the copies tie exactly, and the ties are broken on totals that
        # passed-over nodes leave out of their tot[cu] -= ku, += ku round trip
        g = symmetric_copies_graph(graph_seed)
        assert louvain_with_history(g, seed) == louvain_reference(g, seed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from(["unit", "integer", "fractional"]))
    def test_modularity_matches_reference(self, seed, kind):
        g = weighted_random_graph(seed, kind)
        rng = random.Random(seed)
        p = Partition.from_labels(rng.randrange(4) for _ in range(g.node_count))
        if g.total_weight > 0:
            assert modularity(g, p) == modularity_reference(g, p)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from(["unit", "integer"]), st.booleans())
    def test_history_starts_at_singletons_modularity(self, seed, kind, with_modules):
        # the closed form each restart starts from, against the full sum,
        # isolated nodes and modules of any size included
        g = weighted_random_graph(seed, kind)
        modules = drawn_modules(random.Random(seed), g.node_count) if with_modules else None
        singletons = Partition.from_labels(range(g.node_count))
        assert (louvain_with_history(g, seed % 5, modules)[1][0]
                == modularity(g, singletons, modules))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from(["unit", "integer"]), st.booleans())
    def test_history_ends_at_the_partitions_modularity(self, seed, kind, with_modules):
        # a level's modularity is read from the next level's loops and
        # degrees: each restart's last entry must be the float that
        # modularity() sums over the whole network
        rng = random.Random(seed)
        g = weighted_block_graph(rng, kind)
        modules = drawn_modules(rng, g.node_count) if with_modules else None
        net = partition._level_zero(g, modules)
        for attempt in range(RESTARTS):
            part, history = partition._restart(net, seed, attempt)
            assert history[-1] == modularity(g, part, modules)

    def test_emptied_row_entry_is_dropped(self, monkeypatch):
        # a move after the first sweep leaves a neighbour with no weight into
        # the old community; that entry must go, not stay as a 0.0 candidate,
        # which on this graph would change the partition
        deletions = []

        class Row(dict):
            def __delitem__(self, key):
                deletions.append(key)
                super().__delitem__(key)

        weights = partition._community_weights
        monkeypatch.setattr(partition, "_community_weights",
                            lambda row, comm: Row(weights(row, comm)))
        rng = random.Random(1394)
        n = rng.randint(5, 40)
        g = gnp(n, rng.uniform(0.05, 0.5), rng)
        assert louvain_with_history(g, 0) == louvain_reference(g, 0)
        assert deletions


def test_karate_matches_networkx_best():
    # networkx builds the karate club graph locally; its best Louvain Q over
    # seeds 0-2 is 0.41979, the value usually quoted as 0.4198
    nx = pytest.importorskip("networkx")
    kc = nx.karate_club_graph()
    g = Graph.from_pairs(kc.number_of_nodes(), kc.edges())
    nx_best = max(
        nx.community.modularity(kc, nx.community.louvain_communities(kc, weight=None, seed=s),
                                weight=None)
        for s in range(3))
    part = louvain(g)
    q = modularity(g, part)
    assert q >= nx_best
    assert round(q, 4) == 0.4198
    assert q == pytest.approx(nx.community.modularity(kc, part.communities(), weight=None),
                              abs=1e-12)


PATH4 = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])


class TestModuleChecks:
    """``louvain`` and ``modularity`` take modules that are disjoint sets of
    the graph's nodes, and name the first module or node that is not."""

    @pytest.mark.parametrize("run", [
        lambda modules: louvain(PATH4, 0, modules),
        lambda modules: modularity(PATH4, Partition.from_labels([0, 0, 1, 1]), modules),
    ], ids=["louvain", "modularity"])
    @pytest.mark.parametrize("modules, message", [
        ([{0, 4}], "module 0 has nodes out of range for 4 nodes"),
        ([{-1, 2}], "module 0 has nodes out of range for 4 nodes"),
        ([{0, 1}, {1, 2}], "node 1 lies in more than one module"),
        ([(1, 1, 2)], "node 1 is listed twice in module 0"),
    ])
    def test_bad_modules_rejected(self, run, modules, message):
        with pytest.raises(ValueError) as info:
            run(modules)
        assert str(info.value) == message


class TestPartitionerContract:
    def test_constant_stub_satisfies_contract(self):
        def all_one(g, seed):
            return Partition.from_labels([0] * g.node_count)

        part = all_one(TWO_K3, 0)
        assert len(part) == TWO_K3.node_count
        assert part.community_count == 1

    def test_louvain_satisfies_contract(self):
        part = louvain(TWO_K3, 0)
        assert len(part) == TWO_K3.node_count


# 25 blocks of 20 nodes, more edges across blocks than inside: 16,000
# adjacency entries, above POOL_MIN_SIZE, and noisy enough that the restarts
# end in four or five different partitions and restart 0 seldom wins
BIG = block_graph(25, 20, 12, 20, random.Random(2))
BIG_MODULES = [set(range(b, b + 5)) for b in range(0, BIG.node_count, 20)]


class ForkSpy:
    """Stands in for ``os.fork``: counts the calls, and forks or, with
    ``error``, raises it instead."""

    def __init__(self, error=None):
        self.forks = 0
        self.error = error
        self.fork = os.fork

    def __call__(self):
        self.forks += 1
        if self.error is not None:
            raise self.error
        return self.fork()


def spy_on_fork(monkeypatch, error=None):
    spy = ForkSpy(error)
    monkeypatch.setattr(os, "fork", spy)
    return spy


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedRestarts:
    def test_parallel_restarts_match_serial(self, monkeypatch):
        spy = spy_on_fork(monkeypatch)
        for modules in (None, BIG_MODULES):
            for seed in (0, 1):
                runs = []
                for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
                    set_cpus(monkeypatch, cpus)
                    # a fork DeprecationWarning (Python 3.12+) fails the test
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        runs.append(louvain_with_history(BIG, seed, modules))
                assert runs[0] == runs[1] == runs[2]
        # one CPU runs in-process; two and four CPUs fork one worker per CPU
        assert spy.forks == 2 * 2 * (2 + 4)
        assert_no_children()

    def test_forked_restarts_keep_earliest_best_restart(self, monkeypatch):
        # every restart ties on the final Q; each history starts with a draw
        # from its restart's own sweep-order source, which names the winner
        def tied(net, seed, attempt):
            rng = random.Random(seed * 1_000_003 + attempt)
            return Partition.from_labels(range(len(net.adj))), [rng.random(), 1.0]

        monkeypatch.setattr(partition, "_restart", tied)
        spy = spy_on_fork(monkeypatch)
        first = [random.Random(7 * 1_000_003).random(), 1.0]
        for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
            set_cpus(monkeypatch, cpus)
            _, history = louvain_with_history(BIG, 7)
            assert history == first
        assert spy.forks == 2 + 4

    def test_runs_come_back_in_attempt_order(self, monkeypatch):
        # attempt 0 lasts until the second worker has taken attempt 1, which
        # lasts longest, so the first worker usually runs 0, 2, 3 and 4
        def marked(net, seed, attempt):
            time.sleep({0: 0.1, 1: 0.3}.get(attempt, 0.0))
            return Partition.from_labels([0]), [float(attempt)]

        monkeypatch.setattr(partition, "_restart", marked)
        runs = partition._forked_runs(partition._level_zero(BIG, None), 0, 2)
        assert [history for _, history in runs] == [[float(a)] for a in range(RESTARTS)]
        assert_no_children()

    def test_small_graph_never_forks(self, monkeypatch):
        set_cpus(monkeypatch, {0, 1, 2, 3})
        spy_on_fork(monkeypatch, AssertionError("forked"))
        g = gnp_or_path(5, n=30, p=0.15)
        assert louvain_with_history(g, 3) == louvain_reference(g, 3)
        with pytest.raises(AssertionError, match="forked"):
            louvain_with_history(BIG, 3)

    def test_threaded_callers_stay_in_process(self, monkeypatch):
        # forking a process in which another thread runs can deadlock the child
        set_cpus(monkeypatch, {0, 1})
        spy_on_fork(monkeypatch, AssertionError("forked"))
        results = []
        worker = threading.Thread(target=lambda: results.append(louvain_with_history(BIG, 4)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(results) == 1

    def test_daemonic_callers_stay_in_process(self, monkeypatch):
        # a pool's worker is daemonic: the pool may terminate it before it
        # reaps workers of its own
        set_cpus(monkeypatch, {0, 1})
        fork = os.fork

        def pool_fork():
            # the pool forks its worker; a fork inside that worker fails
            if multiprocessing.current_process().daemon:
                raise AssertionError("forked")
            return fork()

        monkeypatch.setattr(os, "fork", pool_fork)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inner = pool.apply_async(louvain_with_history, (BIG, 5)).get(timeout=60)
        set_cpus(monkeypatch, {0})
        assert inner == louvain_with_history(BIG, 5)

    def test_worker_errors_keep_their_text(self, monkeypatch, tmp_path, capsys):
        from edmot.cli import main
        from edmot.graph import write_edge_list

        def failing(net, seed, attempt):
            raise LookupError("restart failed: no such community")

        set_cpus(monkeypatch, {0, 1})
        spy = spy_on_fork(monkeypatch)
        monkeypatch.setattr(partition, "_restart", failing)
        with pytest.raises(LookupError) as info:
            louvain_with_history(BIG, 0)
        assert type(info.value) is LookupError
        assert str(info.value) == "restart failed: no such community"
        assert_no_children()
        edges = tmp_path / "big.edges"
        edges.write_text(write_edge_list(BIG))
        rc = main(["detect", "--input", str(edges), "--method", "plain",
                   "--output", str(tmp_path / "out.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error [pipeline]: stage 'final_partition': restart failed: no such community\n")
        assert spy.forks == 2 + 2
        assert_no_children()

    @pytest.mark.parametrize("error", ["unpicklable", "unloadable"])
    def test_errors_that_do_not_survive_pickling_keep_type_name_and_text(
            self, monkeypatch, error):
        class LocalError(Exception):
            """A class local to a function: pickle cannot find it by name."""

        def failing(net, seed, attempt):
            if error == "unpicklable":
                raise LocalError("restart failed")
            raise TwoPartError("restart", "failed")

        set_cpus(monkeypatch, {0, 1})
        spy = spy_on_fork(monkeypatch)
        monkeypatch.setattr(partition, "_restart", failing)
        with pytest.raises(RuntimeError) as info:
            louvain_with_history(BIG, 0)
        name = "LocalError" if error == "unpicklable" else "TwoPartError"
        assert str(info.value) == f"{name}: restart failed"
        assert spy.forks == 2
        assert_no_children()

    def test_worker_ending_without_a_result_is_a_pipeline_error(self, tmp_path):
        from edmot.graph import write_edge_list

        edges = tmp_path / "big.edges"
        edges.write_text(write_edge_list(BIG))
        # the CLI in its own interpreter, so a hang ends at the timeout
        code = textwrap.dedent("""
            import os, sys
            from edmot import partition
            from edmot.cli import main

            caller = os.getpid()

            def dying(net, seed, attempt):
                if os.getpid() == caller:
                    raise AssertionError("the restarts ran in-process")
                os._exit(1)

            partition._restart = dying
            os.sched_getaffinity = lambda pid: {0, 1}
            sys.exit(main(sys.argv[1:]))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(partition.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code, "detect", "--input", str(edges), "--method", "plain",
             "--output", str(tmp_path / "out.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (
            1, "error [pipeline]: stage 'final_partition': a Louvain restart worker "
               "ended without a result (exit code 1)\n")


class TwoPartError(Exception):
    """Pickles, but its pickle fails to load: it holds one joined argument."""

    def __init__(self, what, why):
        super().__init__(f"{what} {why}")
