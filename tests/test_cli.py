import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edmot import cli, pipeline
from edmot.cli import _parse_k_arg, main
from edmot.graph import (Graph, build_motif_adjacency, graph_stats,
                         largest_connected_component, parse_edge_list, parse_label_file,
                         write_edge_list)
from edmot.pipeline import METHODS
from util import (block_graph, built_hypergraph_report, disjoint_union, gnp,
                  read_weighted_edges)

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
KARATE_EDGES = REPO / "tests" / "fixtures" / "karate.edges"
KARATE_LABELS = REPO / "tests" / "fixtures" / "karate.labels"

K3_TEXT = "0 1\n1 2\n0 2\n"
SEVEN_NODE_TEXT = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n5 6\n"
SEVEN_NODE_LABELS = "0 a\n1 a\n2 a\n3 b\n4 b\n5 b\n6 b\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3_TEXT)
    return path


@pytest.fixture
def seven_node_files(tmp_path):
    edges = tmp_path / "seven.edges"
    edges.write_text(SEVEN_NODE_TEXT)
    labels = tmp_path / "seven.labels"
    labels.write_text(SEVEN_NODE_LABELS)
    return edges, labels


def assert_unknown_option(argv, capsys, option):
    """``argv`` ends in argparse's usage error, exit 2, naming ``option``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def synthetic_manifest(tmp_path, labeled=True):
    rng = random.Random(99)
    g1 = gnp(18, 0.35, rng)
    (tmp_path / "alpha.edges").write_text(write_edge_list(g1))
    entries = {"alpha": {"edges": "alpha.edges"}}
    if labeled:
        labels = "".join(f"{u} {'x' if u < 9 else 'y'}\n" for u in range(18))
        (tmp_path / "alpha.labels").write_text(labels)
        entries["alpha"]["labels"] = "alpha.labels"
    g2 = Graph.from_pairs(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    (tmp_path / "beta.edges").write_text(write_edge_list(g2))
    entries["beta"] = {"edges": "beta.edges"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


class TestDetect:
    def test_plain_on_k3_is_one_community(self, k3_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["detect", "--input", str(k3_file), "--method", "plain", "--output", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["partition"]["community_count"] == 1
        assert payload["report"]["nmi"] is None
        assert payload["config"] == {
            "subcommand": "detect", "input": str(k3_file), "largest_cc": True,
            "output": str(out), "labels": None, "method": "plain", "k": 1, "seed": 0}
        # the pipeline reads no input weights, so there is no option for them
        assert_unknown_option([*argv, "--weighted"], capsys, "--weighted")

    def test_edmot_with_labels_scores_metrics(self, seven_node_files, tmp_path):
        edges, labels = seven_node_files
        out = tmp_path / "out.json"
        rc = main(["detect", "--input", str(edges), "--labels", str(labels),
                   "--method", "edmot", "--top-k", "1", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["nmi"] == 1.0
        assert payload["report"]["f_score"] == 1.0
        assert payload["report"]["trace"]["component_count"] == 2
        assert payload["report"]["modularity_rewired"] is not None
        assert payload["partition"]["assignment"]["6"] == \
            payload["partition"]["assignment"]["5"]

    def test_labels_missing_for_graph_nodes_are_a_parse_error(self, seven_node_files,
                                                              capsys):
        edges, labels = seven_node_files
        labels.write_text("0 a\n1 a\n3 b\n")
        assert main(["detect", "--input", str(edges), "--labels", str(labels)]) == 1
        assert capsys.readouterr().err == ("error [parse]: 4 graph nodes lack ground-truth "
                                           "labels (first missing: '2')\n")

    def test_missing_input_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.edges"
        rc = main(["detect", "--input", str(missing), "--method", "plain"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "nope.edges" in err and err.startswith("error [io]")

    @pytest.mark.parametrize("kind", ["input", "labels", "manifest"])
    def test_directory_is_not_a_file(self, seven_node_files, tmp_path, capsys, kind):
        edges, _ = seven_node_files
        argv = {"input": ["detect", "--input", str(tmp_path)],
                "labels": ["detect", "--input", str(edges), "--labels", str(tmp_path)],
                "manifest": ["bench", "--manifest", str(tmp_path)]}[kind]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error [io]: {kind} path is not a file: {tmp_path}\n")

    def test_parse_error_is_tagged(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 2 3\n")
        rc = main(["detect", "--input", str(bad), "--method", "plain"])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error [parse]")

    @pytest.mark.parametrize("method", ["plain", "motif", "edmot"])
    def test_self_loops_only_is_a_parse_error(self, tmp_path, capsys, method):
        path = tmp_path / "loops.edges"
        path.write_text("a a\n")
        assert main(["detect", "--input", str(path), "--method", method]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [parse]") and "self-loops" in err

    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_k_rejected(self, k3_file, capsys, method):
        rc = main(["detect", "--input", str(k3_file), "--method", method, "--top-k", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error [config]: K must be at least 1, got 0\n"

    def test_non_utf8_input_is_a_parse_error(self, seven_node_files, tmp_path, capsys):
        edges, labels = seven_node_files
        bad = tmp_path / "bad.bytes"
        bad.write_bytes(b"0 1\n1 2\n2 \xff\n")
        for argv in (["detect", "--input", str(bad)],
                     ["components", "--input", str(bad)],
                     ["detect", "--input", str(edges), "--labels", str(bad)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error [parse]") and "UTF-8" in err

    def test_largest_cc_default_and_optout(self, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n1 2\n0 2\n8 9\n")
        out = tmp_path / "out.json"
        assert main(["detect", "--input", str(path), "--method", "plain",
                     "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["partition"]["assignment"]) == 3
        assert main(["detect", "--input", str(path), "--method", "plain",
                     "--no-largest-cc", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["partition"]["assignment"]) == 5


def planted_text(rng, blocks=3, size=8, p_in=0.6, p_out=0.04):
    """Edge list and label file of a small planted partition, in token form."""
    n = blocks * size
    edges = "".join(f"{u} {v}\n" for u in range(n) for v in range(u + 1, n)
                    if rng.random() < (p_in if u // size == v // size else p_out))
    labels = "".join(f"{u} block{u // size}\n" for u in range(n))
    return edges, labels


class TestMetamorphic:
    def test_token_renaming_is_an_identity(self, tmp_path):
        """Renaming every token through a bijection, line order kept, leaves
        the run unchanged: nodes get dense ids in order of first appearance,
        so the renamed graph is the same graph.

        Permuting node ids is not such an identity: the Louvain sweep order
        is a seeded shuffle of the ids, so a permuted graph visits its nodes
        in another order and may settle on another partition.
        """
        names = ["nœud", "узел", "節点", "κόμβος", "x", "0"]
        for seed in range(3):
            edges, labels = planted_text(random.Random(seed))
            tokens = sorted({tok for text in (edges, labels) for tok in text.split()})
            rng = random.Random(seed)
            renamed = rng.sample(range(len(tokens)), len(tokens))
            to_new = {tok: f"{names[i % len(names)]}-{i}" for tok, i in zip(tokens, renamed)}
            to_old = {new: old for old, new in to_new.items()}
            reports = []
            for tag, rename in (("a", str), ("b", to_new.__getitem__)):
                files = []
                for kind, text in (("edges", edges), ("labels", labels)):
                    path = tmp_path / f"{tag}.{kind}"
                    path.write_text("".join(" ".join(map(rename, line.split())) + "\n"
                                            for line in text.splitlines()), encoding="utf-8")
                    files.append(str(path))
                out = tmp_path / f"{tag}.json"
                assert main(["detect", "--method", "edmot", "--input", files[0],
                             "--labels", files[1], "--output", str(out)]) == 0
                reports.append(json.loads(out.read_text(encoding="utf-8")))
            plain, mapped = reports
            assert mapped["report"]["nmi"] == plain["report"]["nmi"] > 0.5
            assert ({to_old[tok]: c for tok, c in mapped["partition"]["assignment"].items()}
                    == plain["partition"]["assignment"])


class TestComponents:
    def test_k4_report(self, tmp_path, capsys):
        path = tmp_path / "k4.edges"
        path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        out = tmp_path / "frag.json"
        argv = ["components", "--input", str(path), "--output", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        frag = payload["fragmentation"]
        assert frag["component_count"] == 1
        assert frag["isolated_count"] == 0
        assert payload["stats"]["n"] == 4
        assert payload["config"] == {
            "subcommand": "components", "input": str(path), "largest_cc": True,
            "output": str(out)}
        assert_unknown_option([*argv, "--weighted"], capsys, "--weighted")

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        reports = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.edges"
            path.write_bytes(prefix + b"a b\nb c\nc a\n")
            out = tmp_path / f"{name}.json"
            assert main(["components", "--input", str(path), "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        frag = reports[1]["fragmentation"]
        assert frag == reports[0]["fragmentation"]
        assert frag["component_count"] == 1 and frag["node_count"] == 3

    # explicit ids keep each case's name fixed as cases come and go
    @pytest.mark.parametrize("flags", [pytest.param([], id="flags0"),
                                       pytest.param(["--no-largest-cc"], id="flags2")])
    def test_report_is_that_of_the_built_hypergraph(self, tmp_path, flags):
        # three connected parts, so --no-largest-cc reports a larger graph
        rng = random.Random(11)
        parts = disjoint_union(block_graph(8, 10, within=6, cross=2, rng=rng),
                               block_graph(3, 10, within=6, cross=2, rng=rng),
                               gnp(12, 0.3, rng))
        text = write_edge_list(parts)
        path = tmp_path / "g.edges"
        path.write_text(text)
        out = tmp_path / "frag.json"
        assert main(["components", "--input", str(path), "--output", str(out), *flags]) == 0
        payload = json.loads(out.read_text())
        g, _ = parse_edge_list(text)
        if "--no-largest-cc" not in flags:
            g, _ = largest_connected_component(g)
        assert payload["stats"] == json.loads(json.dumps(graph_stats(g)))
        report = built_hypergraph_report(g)
        assert payload["fragmentation"] == json.loads(json.dumps(report))
        assert (g.node_count > 80) == ("--no-largest-cc" in flags)


class TestOutputEncoding:
    def test_output_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # bench cells hold "±"; motif echoes tokens that were read as UTF-8
        (tmp_path / "tri.edges").write_bytes("é b\nb c\nc é\n".encode("utf-8"))
        (tmp_path / "manifest.json").write_text(json.dumps({"tri": {"edges": "tri.edges"}}))
        commands = (["bench", "--manifest", "manifest.json", "--runs", "1"],
                    ["motif", "--input", "tri.edges"])
        base = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONCOERCECLOCALE": "0"}
        locales = {"ascii": {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"},
                   "utf8": {"PYTHONUTF8": "1"}}
        for i, argv in enumerate(commands):
            outputs = {}
            for name, env in locales.items():
                out = f"{name}-{i}.out"
                proc = subprocess.run(
                    [sys.executable, "-m", "edmot.cli", *argv, "--output", out],
                    cwd=tmp_path, env={**base, **env}, capture_output=True, text=True,
                    timeout=120)
                assert (proc.returncode, proc.stderr) == (0, "")
                outputs[name] = (tmp_path / out).read_bytes()
            assert outputs["ascii"] == outputs["utf8"]
            assert not outputs["ascii"].isascii()

    def test_stdout_is_utf8_under_an_ascii_locale(self, tmp_path):
        (tmp_path / "tri.edges").write_bytes("é b\nb c\nc é\n".encode("utf-8"))
        (tmp_path / "manifest.json").write_text(json.dumps({"tri": {"edges": "tri.edges"}}))
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONCOERCECLOCALE": "0",
               "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"}
        for argv in (["motif", "--input", "tri.edges"],
                     ["bench", "--manifest", "manifest.json", "--runs", "1"]):
            outputs = []
            for output in ([], ["--output", "-"], ["--output", "file.out"]):
                proc = subprocess.run([sys.executable, "-m", "edmot.cli", *argv, *output],
                                      cwd=tmp_path, env=env, capture_output=True,
                                      timeout=120)
                assert (proc.returncode, proc.stderr) == (0, b"")
                outputs.append(proc.stdout or (tmp_path / "file.out").read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]
            assert not outputs[0].isascii()

    @pytest.mark.parametrize("argv", [["detect", "--labels", str(KARATE_LABELS)],
                                      ["components"]])
    def test_reports_are_written_as_json_dumps_writes_them(self, tmp_path, monkeypatch,
                                                            capsysbinary, argv):
        dumps = json.dumps

        def whole(*args, **kwargs):
            raise AssertionError("a report was encoded as one text")

        monkeypatch.setattr(cli.json, "dumps", whole)
        argv = [*argv, "--input", str(KARATE_EDGES)]
        out = tmp_path / "out.json"
        assert main([*argv, "--output", str(out)]) == 0
        assert main(argv) == 0
        # each run has its own wall time, so each text is checked on its own
        for text in (out.read_bytes(), capsysbinary.readouterr().out):
            assert text.decode("utf-8") == dumps(json.loads(text), indent=2) + "\n"



class TestMotif:
    def test_weighted_edge_list_output(self, tmp_path, capsys):
        # K4 and a pendant edge: each K4 edge lies in two triangles
        path = tmp_path / "k4.edges"
        path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n")
        out = tmp_path / "wm.txt"
        argv = ["motif", "--input", str(path), "--output", str(out)]
        assert main(argv) == 0
        g, lm = parse_edge_list(path.read_bytes())
        h = build_motif_adjacency(g)
        assert read_weighted_edges(out.read_text()) == {
            frozenset((lm.labels[u], lm.labels[v])): w for u, v, w in h.edges()}
        assert all(line.split()[2] == "2" for line in out.read_text().splitlines())
        assert h.edge_count == 6
        # the export's weight column makes it no edge list that edmot reads
        assert main(["detect", "--input", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error [parse]: line 1: expected 2 fields, got 3")
        assert_unknown_option([*argv, "--weighted"], capsys, "--weighted")

    def test_external_ids_preserved(self, tmp_path):
        path = tmp_path / "named.edges"
        path.write_text("alice bob\nbob carol\ncarol alice\n")
        out = tmp_path / "wm.txt"
        assert main(["motif", "--input", str(path), "--output", str(out)]) == 0
        tokens = {tok for line in out.read_text().splitlines()
                  for tok in line.split()[:2]}
        assert tokens == {"alice", "bob", "carol"}


    def test_comment_like_tokens_round_trip(self, tmp_path):
        # "#x" must not start a line of the output, or it reads as a comment
        path = tmp_path / "hash.edges"
        path.write_text("a #x\nb #x\na b\n")
        out = tmp_path / "wm.txt"
        assert main(["motif", "--input", str(path), "--output", str(out)]) == 0
        text = out.read_text()
        assert not text.startswith("#") and "\n#" not in text
        assert read_weighted_edges(text) == {
            frozenset(pair): 1.0 for pair in (("a", "#x"), ("b", "#x"), ("a", "b"))}


class TestBench:
    def test_table_shape(self, tmp_path):
        manifest = synthetic_manifest(tmp_path)
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--manifest", str(manifest), "--runs", "2",
                   "--seed", "5", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# bench seed=5 runs=2 top_k=1"
        assert lines[1] == "metric,method,alpha,beta"
        body = lines[2:]
        assert len(body) == 9  # 3 metrics x 3 methods
        assert body[0].startswith("nmi,Louvain,")
        assert body[2].startswith("nmi,EdMot-Louvain,")
        # beta has no labels: nmi/f cells n/a, modularity numeric
        nmi_cells = body[0].split(",")
        assert nmi_cells[3] == "n/a"
        q_cells = body[8].split(",")
        assert "±" in q_cells[2] and "±" in q_cells[3]

    def test_single_run_has_zero_std(self, tmp_path):
        manifest = synthetic_manifest(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--manifest", str(manifest), "--runs", "1",
                     "--output", str(out)]) == 0
        for line in out.read_text().splitlines()[2:]:
            for cell in line.split(",")[2:]:
                if "±" in cell:
                    assert cell.endswith("±0.0000")

    def test_byte_identical_repeat(self, tmp_path):
        manifest = synthetic_manifest(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["bench", "--manifest", str(manifest), "--runs", "3", "--seed", "11"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dataset_failure_lands_in_cells(self, tmp_path, capsys):
        manifest = synthetic_manifest(tmp_path)
        entries = json.loads(manifest.read_text())
        entries["ghost"] = {"edges": "missing.edges"}
        manifest.write_text(json.dumps(entries))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--manifest", str(manifest), "--runs", "1",
                   "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",ghost")
        for line in lines[2:]:
            assert line.split(",")[4] == "error"
        assert "ghost" in capsys.readouterr().err

    def test_table_without_numbers_fails(self, tmp_path, capsys):
        # one dataset fails to load, the other fails every run: the table is
        # still written, all of it ``error``, and the command fails
        (tmp_path / "loop.edges").write_text("a a\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"ghost": {"edges": "missing.edges"},
                                        "loop": {"edges": "loop.edges"}}))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--manifest", str(manifest), "--runs", "1",
                   "--output", str(out)])
        assert rc == 1
        lines = out.read_text().splitlines()
        assert lines[1] == "metric,method,ghost,loop"
        assert len(lines) == 2 + 3 * 3
        assert all(line.split(",")[2:] == ["error", "error"] for line in lines[2:])
        tagged = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error [")]
        assert tagged == ["error [bench]: no cell of the table holds a number; "
                          "every dataset failed"]

    def test_bad_manifest_entry_is_a_config_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        good = {"edges": "a.edges"}
        # a dataset name is a CSV column header, so it may not break the CSV
        for name, entry in (("a", {"labels": "x"}), ("a", ["a.edges"]), ("a", {"edges": 3}),
                            ("a", {"edges": "a.edges", "labels": 5}),
                            ("a", {"edges": "a.edges", "labels": 0}),
                            ("alpha,beta", good), ('say "hi"', good), ("gam\nma", good),
                            ("cr\rlf", good)):
            manifest.write_text(json.dumps({name: entry}))
            assert main(["bench", "--manifest", str(manifest)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error [config]") and repr(name) in err
            assert err.count("\n") == 1

    def test_unknown_manifest_key_is_a_config_error(self, k3_file, tmp_path, capsys):
        # K comes only from --top-k, and a misspelt key would drop its value
        manifest = tmp_path / "manifest.json"
        out = tmp_path / "bench.csv"
        for key, entry in (("k", {"edges": k3_file.name, "k": 1}),
                           ("lables", {"edges": k3_file.name, "lables": "k3.labels"}),
                           # the pipeline reads no input weights
                           ("weighted", {"edges": k3_file.name, "weighted": False}),
                           ("edegs", {"edegs": k3_file.name})):
            manifest.write_text(json.dumps({"tri": entry}))
            assert main(["bench", "--manifest", str(manifest), "--runs", "1",
                         "--output", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error [config]: manifest entry 'tri' has unknown key "
                                  f"{key!r}")
            assert "--top-k" in err and err.count("\n") == 1
            assert not out.exists()

    def test_zero_runs_rejected(self, k3_file, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tri": {"edges": k3_file.name}}))
        assert main(["bench", "--manifest", str(manifest), "--runs", "0"]) == 1
        assert capsys.readouterr().err == "error [config]: runs must be at least 1, got 0\n"

    def test_text_only_stdout_gets_the_file_text(self, k3_file, tmp_path):
        # a stdout without a byte buffer, such as an io.StringIO, gets the
        # same text that --output writes
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tri": {"edges": k3_file.name}}))
        out = tmp_path / "bench.csv"
        argv = ["bench", "--manifest", str(manifest), "--runs", "1"]
        assert main([*argv, "--output", str(out)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        assert stdout.getvalue() == out.read_text(encoding="utf-8")

    def test_k_sweep_rows(self, tmp_path):
        manifest = synthetic_manifest(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = main(["bench", "--manifest", str(manifest), "--runs", "1",
                   "--top-k", "1..3", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "metric,K,alpha,beta"
        assert len(lines) == 2 + 3 * 3  # 3 metrics x K in 1..3
        assert lines[2].split(",")[:2] == ["nmi", "1"]
        assert lines[4].split(",")[:2] == ["nmi", "3"]

    def test_k_sweep_runs_each_distinct_cell_once(self, k3_file, tmp_path, monkeypatch):
        # one triangle is one hypergraph component, so K = 2..50 repeat K = 1;
        # two bridged triangles are two, so K = 3..50 repeat K = 2
        pair = tmp_path / "pair.edges"
        pair.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tri": {"edges": k3_file.name},
                                        "pair": {"edges": pair.name}}))
        calls = []
        detect = cli.detect_communities

        def counting(*args, **kwargs):
            calls.append(kwargs["k"])
            return detect(*args, **kwargs)

        monkeypatch.setattr(cli, "detect_communities", counting)
        out = tmp_path / "sweep.csv"
        assert main(["bench", "--manifest", str(manifest), "--runs", "2",
                     "--top-k", "1..50", "--output", str(out)]) == 0
        assert calls == [1, 1, 1, 1, 2, 2]
        columns = []
        for path in (k3_file, pair):
            g, _ = cli._load_graph(str(path), True)
            columns.append([cli._run_cells(g, None, "edmot", k, range(2))[0]
                            for k in range(1, 51)])
        assert out.read_text().splitlines()[2:] == [
            ",".join([metric, str(k), *(col[k - 1][metric] for col in columns)])
            for metric in cli.BENCH_METRICS for k in range(1, 51)]

    def test_long_sweep_streams_rows(self, k3_file, tmp_path, capsys):
        # memory must not grow with the sweep length: the column stops at the
        # component count and rows are written one by one
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tri": {"edges": k3_file.name}}))
        argv = ["bench", "--manifest", str(manifest), "--runs", "1",
                "--top-k", "1..20000"]
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            assert main([*argv, "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_bytes()
        assert text.count(b"\n") == 2 + 3 * 20000
        assert peak < 2 * 2**20
        assert main([*argv, "--output", "-"]) == 0
        assert capsys.readouterr().out.encode() == text

    def test_unreadable_manifest_names_its_path(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        # truncated JSON, a byte that is not UTF-8, then JSON that is not a
        # non-empty object
        for raw in (b'{"a": {"edges": "k3"', b'{"a": {"edges": "\xff.edges"}}',
                    b"{}", b"[]", b'["a.edges"]'):
            manifest.write_bytes(raw)
            assert main(["bench", "--manifest", str(manifest)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error [config]") and str(manifest) in err
            assert err.count("\n") == 1

    def test_manifest_byte_order_mark_ignored(self, k3_file, tmp_path):
        spec = json.dumps({"tri": {"edges": k3_file.name}}).encode()
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            manifest = tmp_path / f"{name}.json"
            manifest.write_bytes(prefix + spec)
            out = tmp_path / f"{name}.csv"
            argv = ["bench", "--manifest", str(manifest), "--runs", "1", "--output", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] and ",tri\n" in outputs[0]

    def test_missing_manifest_fails(self, tmp_path, capsys):
        rc = main(["bench", "--manifest", str(tmp_path / "none.json")])
        assert rc != 0
        assert "error [io]" in capsys.readouterr().err

    def test_sweep_builds_each_hypergraph_once_per_run(self, k3_file, tmp_path,
                                                       monkeypatch):
        # the column's stop count comes from the runs' traces, so no extra
        # hypergraph is built just to count components
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tri": {"edges": k3_file.name}}))
        calls = []
        for namespace in (cli, pipeline):
            build = namespace.build_motif_adjacency
            monkeypatch.setattr(namespace, "build_motif_adjacency",
                                lambda g, build=build: calls.append(g) or build(g))
        assert main(["bench", "--manifest", str(manifest), "--runs", "2",
                     "--top-k", "1..3", "--output", str(tmp_path / "sweep.csv")]) == 0
        assert len(calls) == 2

    def test_bad_sweep_range_rejected(self, tmp_path, capsys):
        manifest = synthetic_manifest(tmp_path)
        for text in ("3..1", "0", "abc", "1..", "2..x"):
            rc = main(["bench", "--manifest", str(manifest), "--top-k", text])
            assert rc != 0
            err = capsys.readouterr().err
            assert err.startswith(f"error [config]: bad --top-k value {text!r}")
            assert "A..B" in err and err.count("\n") == 1


class TestKarateFixture:
    """The committed karate club fixture, with its club split as ground
    truth: a labelled network that needs no download."""

    @pytest.mark.parametrize("method", ["plain", "motif", "edmot"])
    def test_detect_scores_the_club_split(self, tmp_path, method):
        out = tmp_path / "out.json"
        assert main(["detect", "--input", str(KARATE_EDGES), "--labels", str(KARATE_LABELS),
                     "--method", method, "--output", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert isinstance(report["nmi"], float) and 0.0 <= report["nmi"] <= 1.0

    def test_bench_scores_the_club_split(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"karate": {"edges": str(KARATE_EDGES),
                                                   "labels": str(KARATE_LABELS)}}))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--manifest", str(manifest), "--runs", "2",
                     "--output", str(out)]) == 0
        nmi_rows = [line.split(",") for line in out.read_text().splitlines()
                    if line.startswith("nmi,")]
        assert len(nmi_rows) == 3
        for row in nmi_rows:
            mean, std = map(float, row[2].split("±"))
            assert 0.0 <= mean <= 1.0 and std >= 0.0

    def test_fixture_is_networkx_karate_club(self):
        nx = pytest.importorskip("networkx")
        karate = nx.karate_club_graph()
        g, lm = parse_edge_list(KARATE_EDGES.read_bytes())
        assert {frozenset(map(int, (lm.labels[u], lm.labels[v]))) for u, v in g.edge_pairs()} \
            == {frozenset(e) for e in karate.edges()}
        assert parse_label_file(KARATE_LABELS.read_bytes()) == {
            str(u): club.replace(" ", "_") for u, club in karate.nodes(data="club")}


# junk that parsers tend to trip on: NUL, a byte that is never UTF-8, a BOM,
# float and int spellings, Unicode line separators and spaces, and a bare CR
JUNK = [b"\0", b"\xff", b"\xef\xbb\xbf", b"nan", b"inf", b"1e308", b"1e-320", b"-1",
        b"0x10", b"1_0", *(c.encode() for c in "\u2028\u2029\x85\xa0\u3000"), b"\r"]
ERROR_LINE = re.compile(r"^error \[(parse|io|pipeline|bench|config)\]: ")


@st.composite
def mutated(draw, text: bytes) -> bytes:
    """``text`` with a few lines deleted, truncated or shuffled, a byte
    flipped or a junk token inserted."""
    lines = text.split(b"\n")
    for op in draw(st.lists(st.sampled_from(("delete", "truncate", "shuffle", "flip",
                                             "junk")), max_size=4)):
        if op == "shuffle":
            lines = draw(st.permutations(lines))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "truncate":
            lines[i] = line[:at]
        elif op == "flip" and at < len(line):
            flipped = line[at] ^ draw(st.integers(1, 255))
            lines[i] = line[:at] + bytes([flipped]) + line[at + 1:]
        elif op == "junk":
            lines[i] = line[:at] + draw(st.sampled_from(JUNK)) + line[at:]
    return b"\n".join(lines)


@st.composite
def cli_argv(draw, tmp: Path, subcommand: str) -> list[str]:
    """An argparse-valid ``subcommand`` argv over mutated karate files that it
    writes under ``tmp`` (usage errors exit 2 by design, so none is drawn)."""
    edges, labels = tmp / "karate.edges", tmp / "karate.labels"
    edges.write_bytes(draw(mutated(KARATE_EDGES.read_bytes())))
    labels.write_bytes(draw(mutated(KARATE_LABELS.read_bytes())))
    argv = [subcommand, "--output", str(tmp / "out")]
    if draw(st.booleans()):
        argv.append("--no-largest-cc")
    if subcommand != "bench":
        argv += ["--input", str(edges)]
    if subcommand == "detect":
        argv += ["--method", draw(st.sampled_from(METHODS)),
                 "--top-k", draw(st.sampled_from(("1", "2", "5", "0"))),
                 "--seed", draw(st.sampled_from(("0", "-1", str(2**70))))]
        if draw(st.booleans()):
            argv += ["--labels", str(labels)]
    elif subcommand == "bench":
        # at most one fault, so that each one reaches the check that catches it
        fault = draw(st.sampled_from((None, "runs", "top-k", "truncated", "list",
                                      "comma name", "labels", "missing", "directory")))
        entry = {"edges": edges.name}
        if fault == "labels" or draw(st.booleans()):
            entry["labels"] = 3 if fault == "labels" else labels.name
        text = json.dumps([entry] if fault == "list" else
                          {"a,b" if fault == "comma name" else "karate": entry})
        if fault == "truncated":
            text = text[:draw(st.integers(0, len(text) - 1))]
        manifest = tmp / "manifest.json"
        manifest.write_text(text)
        argv += ["--manifest", str({"missing": tmp / "none.json",
                                    "directory": tmp}.get(fault, manifest)),
                 "--top-k", draw(st.sampled_from(("2..1", "0", "x") if fault == "top-k"
                                                 else ("1", "1..3"))),
                 "--runs", "0" if fault == "runs" else draw(st.sampled_from(("1", "2"))),
                 "--seed", draw(st.sampled_from(("0", "-1")))]
    return argv


class TestNeverATraceback:
    """Every argparse-valid run on malformed input exits 0, or exits 1 with a
    tagged ``error [...]`` line last on stderr; no exception leaves ``main``."""

    @pytest.mark.parametrize("subcommand", ["detect", "components", "motif", "bench"])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_karate_runs_end_cleanly(self, tmp_path, subcommand, data):
        argv = data.draw(cli_argv(tmp_path, subcommand), label="argv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1)
        if rc == 1:
            assert ERROR_LINE.match(err.getvalue().splitlines()[-1])


class TestKArgParsing:
    def test_single_value(self):
        assert _parse_k_arg("4") == 4

    def test_range(self):
        assert _parse_k_arg("1..8") == (1, 8)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            _parse_k_arg("0")


class TestBenchmarkPlugPoints:
    """The traced benchmark run patches names in edmot's modules; a traced
    op must still bind every one of them and compute what an untraced op does."""

    def test_traced_ops_match_untraced(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from layers import LayerTrace

        rng = random.Random(17)
        g = gnp(40, 0.2, rng)
        edges = tmp_path / "g.edges"
        edges.write_text(write_edge_list(g))
        labels = tmp_path / "g.labels"
        labels.write_text("".join(f"{u} {u % 3}\n" for u in range(g.node_count)))
        out = tmp_path / "out.json"
        # output key -> (argv, spans only that subcommand reaches)
        ops = {"partition": (["detect", "--method", "edmot", "--labels", str(labels)],
                             ("motif.adjacency", "components.split", "pipeline.modules",
                              "pipeline.clique_edges", "pipeline.rewire",
                              "partition.modules_louvain", "partition.final",
                              "metrics.evaluate")),
               "fragmentation": (["components"], ("components.report",))}
        for key, (argv, spans) in ops.items():
            argv = argv + ["--input", str(edges), "--output", str(out)]
            assert main(argv) == 0
            plain = json.loads(out.read_text())[key]
            trace = LayerTrace()
            with trace.installed():
                assert main(argv) == 0
            assert json.loads(out.read_text())[key] == plain
            spans += ("graph.parse", "graph.lcc", "cli.report")
            layers = trace.metrics()
            assert [name for name in spans if layers[f"{name}_s"] == 0] == []
            if key == "partition":
                assert layers["motif.hyperedges"] > 0 and layers["components.count"] > 0
            else:  # the components report searches the input graph itself
                assert layers["motif.adjacency_s"] == 0
