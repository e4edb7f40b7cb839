"""Command-line surface: detect / components / motif / bench subcommands, and the
report that ``detect`` writes."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .components import _motif_roots, fragmentation_report
from .graph import (EdgeListError, Graph, build_motif_adjacency, graph_stats,
                    largest_connected_component, parse_edge_list, parse_label_file,
                    write_edge_list)
from .metrics import nmi, pairwise_f_score
from .partition import Partition, modularity
from .pipeline import METHODS, PipelineError, PipelineTrace, detect_communities

METHOD_LABELS = {"plain": "Louvain", "motif": "Motif-Louvain", "edmot": "EdMot-Louvain"}
BENCH_METRICS = ("nmi", "f_score", "modularity")
MANIFEST_KEYS = frozenset({"edges", "labels"})


class BenchError(RuntimeError):
    """A bench table holds no number: every run of every dataset failed."""


def _open_file(kind: str, path_str: str | Path) -> BinaryIO:
    """The ``kind`` file at ``path_str``, which must be a file, open for reading bytes."""
    path = Path(path_str)
    if not path.is_file():
        if path.exists():
            raise OSError(f"{kind} path is not a file: {path}")
        raise FileNotFoundError(f"{kind} file not found: {path}")
    return open(path, "rb")


def _load_graph(path_str: str) -> tuple[Graph, list[str]]:
    """Read an edge-list file; returns its largest connected component and
    that component's per-node external ids."""
    with _open_file("input", path_str) as f:  # the parse reads and decodes it
        g, lm = parse_edge_list(f)
    g, keep = largest_connected_component(g)
    return g, [lm.labels[old] for old in keep]


def _load_truth(path_str: str, ext: list[str]) -> Partition:
    with _open_file("labels", path_str) as f:
        mapping = parse_label_file(f)
    missing = [tok for tok in ext if tok not in mapping]
    if missing:
        raise EdgeListError(
            f"{len(missing)} graph nodes lack ground-truth labels "
            f"(first missing: {missing[0]!r})")
    return Partition.from_labels(mapping[tok] for tok in ext)


def _write_output(path_str: str | None, lines: Iterable[str]) -> None:
    if path_str is None or path_str == "-":
        out = getattr(sys.stdout, "buffer", None)
        if out is not None:  # UTF-8 as in files, whatever the locale's encoding
            sys.stdout.flush()
            out.writelines(line.encode("utf-8") for line in lines)
            out.flush()
        else:  # a text-only stream, such as an io.StringIO
            sys.stdout.writelines(lines)
    else:
        with open(path_str, "w", encoding="utf-8") as f:
            f.writelines(lines)


def _write_report(path_str: str | None, payload: dict) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` and a newline,
    encoded a piece at a time: the report is never held as one text."""
    _write_output(path_str, chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"]))


def evaluate(dataset: str, method: str, result: Partition, g: Graph,
             truth: Partition | None = None, *, trace: PipelineTrace, k: int = 1,
             seed: int = 0, wall_time: float = 0.0) -> dict:
    """Report for one run, as the dict ``detect`` writes.

    ``nmi`` and ``f_score`` are None unless ground-truth labels were supplied;
    ``modularity_rewired`` is the trace's, which an ``edmot`` run sets to its
    final partition's modularity on the rewired network.
    """
    if len(result) != g.node_count:
        raise ValueError(
            f"partition covers {len(result)} nodes, graph has {g.node_count}")
    return {
        "dataset": dataset,
        "method": method,
        "k": k,
        "seed": seed,
        "nmi": nmi(result, truth) if truth is not None else None,
        "f_score": pairwise_f_score(result, truth) if truth is not None else None,
        "modularity_original": modularity(g, result),
        "modularity_rewired": trace.modularity_rewired,
        "community_count": result.community_count,
        "trace": trace.to_dict(),
        "wall_time": wall_time,
    }


def cmd_detect(cfg: argparse.Namespace) -> None:
    if cfg.k < 1:
        raise ValueError(f"K must be at least 1, got {cfg.k}")
    g, ext = _load_graph(cfg.input)
    if g.edge_count == 0:
        raise EdgeListError(f"no edges other than self-loops in {cfg.input}")
    truth = _load_truth(cfg.labels, ext) if cfg.labels else None
    t0 = time.perf_counter()
    part, trace = detect_communities(g, method=cfg.method, k=cfg.k, seed=cfg.seed)
    wall = time.perf_counter() - t0
    payload = {
        "config": vars(cfg),
        "report": evaluate(Path(cfg.input).stem, METHOD_LABELS[cfg.method], part, g,
                           truth=truth, k=cfg.k, seed=cfg.seed, trace=trace,
                           wall_time=wall),
        "partition": {
            "community_count": part.community_count,
            "assignment": {ext[u]: part.assignment[u] for u in range(g.node_count)},
        },
    }
    _write_report(cfg.output, payload)


def cmd_components(cfg: argparse.Namespace) -> None:
    g = _load_graph(cfg.input)[0]
    payload = {
        "config": vars(cfg),
        "stats": graph_stats(g),
        # one root per node, counted: no member list or tuple is built
        "fragmentation": fragmentation_report(Counter(_motif_roots(g)).values()),
    }
    _write_report(cfg.output, payload)


def cmd_motif(cfg: argparse.Namespace) -> None:
    g, ext = _load_graph(cfg.input)
    h = build_motif_adjacency(g)
    _write_output(cfg.output, [write_edge_list(h, ext, weighted=True)])


def _mean_std(values: list[float]) -> str:
    return f"{statistics.fmean(values):.4f}±{statistics.pstdev(values):.4f}"


def _run_cells(g: Graph, truth: Partition | None, method: str, k: int,
               seeds: range) -> tuple[dict[str, str], int]:
    """One (dataset, method, K) cell over seeded runs, and its component count."""
    scores: dict[str, list[float]] = {m: [] for m in BENCH_METRICS}
    for seed in seeds:
        part, trace = detect_communities(g, method=method, k=k, seed=seed)
        scores["modularity"].append(modularity(g, part))
        if truth is not None:
            scores["nmi"].append(nmi(part, truth))
            scores["f_score"].append(pairwise_f_score(part, truth))
    return ({m: (_mean_std(v) if v else "n/a") for m, v in scores.items()},
            trace.component_count)


def _load_manifest(path_str: str) -> list[tuple[str, dict]]:
    path = Path(path_str)
    with _open_file("manifest", path) as f:
        data = f.read()
    try:
        spec = json.loads(data.decode("utf-8-sig"))  # drops a leading BOM
    except ValueError as exc:  # also UnicodeDecodeError
        raise ValueError(f"manifest {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(spec, dict) or not spec:
        raise ValueError(f"manifest must be a non-empty JSON object: {path}")
    base = path.parent
    out = []
    for name, entry in spec.items():
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"manifest dataset name {name!r} must not contain a comma, "
                             f"a double quote or a line break (it is a CSV column header)")
        unknown = sorted(set(entry) - MANIFEST_KEYS) if isinstance(entry, dict) else []
        if unknown:
            raise ValueError(f"manifest entry {name!r} has unknown key {unknown[0]!r}; "
                             f"entries take only \"edges\" and \"labels\" "
                             f"(K comes from --top-k)")
        if (not isinstance(entry, dict) or not isinstance(entry.get("edges"), str)
                or not isinstance(entry.get("labels", ""), str)):
            raise ValueError(f"manifest entry {name!r} must be an object with a string "
                             f"\"edges\" path and an optional string \"labels\" path")
        entry = dict(entry)
        entry["edges"] = str(base / entry["edges"])
        if entry.get("labels"):
            entry["labels"] = str(base / entry["labels"])
        out.append((name, entry))
    return out


def _parse_k_arg(text: str) -> tuple[int, int] | int:
    """--top-k accepts a single K or an inclusive sweep range ``A..B``."""
    lo_s, sweep, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if sweep else lo_s)
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise ValueError(f"bad --top-k value {text!r}: expected K or A..B, "
                         f"integers with 1 <= K and 1 <= A <= B")
    return (lo, hi) if sweep else lo


def _row_specs(k_arg: tuple[int, int] | int) -> Iterator[tuple[str, str, int]]:
    """(row label, method, K) per CSV row."""
    if isinstance(k_arg, tuple):
        return ((str(k), "edmot", k) for k in range(k_arg[0], k_arg[1] + 1))
    return ((METHOD_LABELS[method], method, k_arg) for method in METHODS)


def _bench_column(name: str, entry: dict, specs: Iterable[tuple[str, str, int]],
                  seeds: range) -> list[dict[str, str]]:
    """One dataset's cells, in row order; failures become ``error`` cells.

    The column stops after the first ``edmot`` row that fails or whose K is
    at least the hypergraph component count its runs report: every later row
    is ``edmot`` with a larger K, which keeps the same components, so it
    repeats the last cell.
    """
    error = {m: "error" for m in BENCH_METRICS}
    try:
        g, ext = _load_graph(entry["edges"])
        truth = _load_truth(entry["labels"], ext) if entry.get("labels") else None
    except Exception as exc:  # recorded in-cell, other datasets proceed
        print(f"bench: dataset {name!r} failed to load: {exc}", file=sys.stderr)
        return [error]
    column = []
    for _, method, k in specs:
        last = method == "edmot"
        try:
            cells, component_count = _run_cells(g, truth, method, k, seeds)
            last = last and k >= component_count
        except Exception as exc:
            print(f"bench: {method} on {name!r} failed: {exc}", file=sys.stderr)
            cells = error
        column.append(cells)
        if last:
            break
    return column


def cmd_bench(cfg: argparse.Namespace) -> None:
    """Benchmark CSV over the manifest datasets, written row by row.

    Normal mode: rows are (metric, method) for plain / motif / edmot, at the
    ``--top-k`` K; cells hold mean and std over ``runs`` consecutive seeds.
    Sweep mode (``A..B``): rows are (metric, K) for the edge-enhanced method
    only. Per-dataset failures land in the affected cells as ``error``; other
    cells proceed. A table with no number in any cell is still written, then
    raises :class:`BenchError`.
    """
    if cfg.runs < 1:
        raise ValueError(f"runs must be at least 1, got {cfg.runs}")
    k_arg = _parse_k_arg(cfg.k_text)
    datasets = _load_manifest(cfg.manifest)
    seeds = range(cfg.seed, cfg.seed + cfg.runs)
    if isinstance(k_arg, tuple):
        row_kind = "K"
        comment = (f"# bench sweep method={METHOD_LABELS['edmot']} "
                   f"seed={cfg.seed} runs={cfg.runs} top_k={k_arg[0]}..{k_arg[1]}")
    else:
        row_kind = "method"
        comment = f"# bench seed={cfg.seed} runs={cfg.runs} top_k={k_arg}"
    columns = [_bench_column(name, entry, _row_specs(k_arg), seeds)
               for name, entry in datasets]

    def lines():
        yield comment + "\n"
        yield ",".join(["metric", row_kind, *(name for name, _ in datasets)]) + "\n"
        for metric in BENCH_METRICS:
            for i, (label, _, _) in enumerate(_row_specs(k_arg)):
                cells = (col[min(i, len(col) - 1)][metric] for col in columns)
                yield ",".join([metric, label, *cells]) + "\n"
    _write_output(cfg.output, lines())
    if not any("±" in cell for col in columns for cells in col for cell in cells.values()):
        raise BenchError("no cell of the table holds a number; every dataset failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edmot",
        description="Motif-aware community detection via clique edge enhancement.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True):
        if with_input:
            p.add_argument("--input", required=True,
                           help="edge-list file; its largest connected component is read")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    p = sub.add_parser("detect", help="run one community detection method")
    add_io(p)
    p.add_argument("--labels", default=None, help="ground-truth label file")
    p.add_argument("--method", choices=METHODS, default="edmot")
    p.add_argument("--top-k", type=int, default=1, dest="k",
                   help="number of hypergraph components to partition")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("components", help="hypergraph fragmentation report (JSON)")
    add_io(p)

    p = sub.add_parser("motif", help="write the motif adjacency as a weighted edge list")
    add_io(p)

    p = sub.add_parser("bench", help="benchmark CSV over a dataset manifest")
    add_io(p, with_input=False)
    p.add_argument("--manifest", required=True,
                   help="JSON object: dataset name -> {\"edges\": path, \"labels\"?: path}")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", default="1", dest="k_text", metavar="K",
                   help="number of hypergraph components to partition (default 1), "
                        "or a sweep A..B")
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    commands = {"detect": cmd_detect, "components": cmd_components, "motif": cmd_motif,
                "bench": cmd_bench}
    try:
        commands[cfg.subcommand](cfg)
    except EdgeListError as exc:
        print(f"error [parse]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error [pipeline]: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"error [bench]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
