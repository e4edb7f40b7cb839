#!/usr/bin/env python3
"""EdMot benchmark: seeded workloads run through the public CLI entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted-5k --seed 0 --seconds 30 --trace 0

Load model: a closed loop with one client. Ops run one after another in this
process, each a call to ``edmot.cli.main`` with the argv a user would type.
A run uses two input graphs, generated from the run's seed, because the
cost of one graph varies with its seed (on ``planted-5k`` the top hypergraph
component holds 37 to 49 of the 50 blocks). Per run:

1. Set-up, once per graph: generate it, then run one untimed warm-up op on
   it, each in a fresh interpreter; the generator runs once more to check
   that the same seed gives byte-identical files. ``setup_s`` is the median
   over the graphs of generation plus warm-up. ``peak_mb`` is the largest
   amount by which a warm-up op raised its interpreter's peak resident set:
   the memory the run's largest op needs, measured without slowing any
   timed op (tracemalloc makes an op about 7x slower).
2. Measurement. Ops cycle through every (graph, partitioner seed) pair, the
   partitioner seeds derived from the run's seed, until ``--seconds`` have
   passed. ``op_s`` is the median op wall time. With ``--trace 1`` every op
   runs twice, untraced and traced (see ``layers.py``); the per-layer
   metrics are medians over the traced ops and ``trace.overhead_s`` is the
   difference of the two medians. All are printed; the result object holds
   the ones ``BENCHMARK.json`` lists.

Every op's output is checked (see ``check_output``) and fingerprinted; an op
that fails a check, or whose fingerprint differs from the reference in
``fingerprints.json``, counts in ``failed``. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

INSTANCES = 2
PARTITIONER_SEEDS = 2
FINGERPRINTS = HERE / "fingerprints.json"
REFERENCE_SEEDS = 20       # fingerprints.json covers runs with --seed 0..19


@dataclass
class Expected:
    """What the benchmark recomputes from the inputs to check a detect op's output."""
    tokens: list[str]          # largest-component nodes, in the parser's id order
    graph: object              # the largest component as an edmot Graph
    truth: object              # planted Partition over ``tokens``


@dataclass
class Instance:
    """One generated input graph of a run."""
    seed: int                  # generator seed
    directory: Path
    digest: str = ""           # sha256 of the generated files
    setup_s: float = 0.0       # generation plus warm-up op
    exp: Expected | None = None

    def argv(self, w: Workload, pseed: int) -> list[str]:
        d = self.directory
        return op_argv(w, d / "edges.txt", d / "labels.txt", d / "out.json", pseed)


@dataclass
class OpResult:
    seconds: float
    error: str | None = None
    fingerprint: str | None = None
    nmi: float | None = None
    modularity: float | None = None


def partitioner_seeds(seed: int) -> list[int]:
    return [seed * 1000 + i for i in range(PARTITIONER_SEEDS)]


def op_argv(w: Workload, edges: Path, labels: Path, out: Path, pseed: int) -> list[str]:
    argv = [w.subcommand, "--input", str(edges), "--output", str(out)]
    if w.subcommand == "detect":
        argv += ["--method", "edmot", "--top-k", "1", "--labels", str(labels),
                 "--seed", str(pseed)]
    return argv


def generate(w: Workload, seed: int, directory: Path) -> tuple[float, str]:
    """Write the inputs from a fresh interpreter; returns (seconds, sha256 of the files).

    A fresh interpreter has its own string-hash seed, so comparing two
    generations also catches output that depends on it; and the generator's
    garbage stays out of the process that times the ops.
    """
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "workloads.py"), w.name, str(seed),
                           str(directory)], check=True, capture_output=True, text=True)
    return time.perf_counter() - t0, done.stdout.strip()


def expected_for(edges: Path, labels: Path, w: Workload) -> Expected | None:
    """Parse the inputs the way the CLI does, for checking a detect op's output.

    A components report is checked against itself and its fingerprint, so it
    needs nothing from the inputs (parsing them would cost seconds per graph).
    """
    if w.subcommand != "detect":
        return None
    from edmot.graph import largest_connected_component, parse_edge_list, parse_label_file
    from edmot.partition import Partition

    g, label_map = parse_edge_list(edges.read_bytes())
    g, keep = largest_connected_component(g)
    tokens = [label_map.labels[old] for old in keep]
    planted = parse_label_file(labels.read_text())
    return Expected(tokens, g, Partition.from_labels(planted[tok] for tok in tokens))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def partition_fingerprint(assignment: dict[str, int]) -> str:
    """sha256 of the set partition: communities relabelled by first token in sorted order."""
    relabel: dict[int, int] = {}
    lines = [f"{tok} {relabel.setdefault(assignment[tok], len(relabel))}\n"
             for tok in sorted(assignment)]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def check_output(r: OpResult, payload: dict, exp: Expected | None) -> None:
    """Check one op's written report, recording a failure or the output's fingerprint."""
    from edmot.metrics import nmi
    from edmot.partition import Partition, modularity

    if "fragmentation" in payload:
        frag = payload["fragmentation"]
        hist_nodes = sum(int(size) * count
                         for size, count in frag["component_size_histogram"].items())
        if hist_nodes + frag["isolated_count"] != frag["node_count"]:
            r.error = "histogram nodes plus isolated nodes != node_count"
        else:
            r.fingerprint = hashlib.sha256(
                json.dumps(frag, sort_keys=True).encode()).hexdigest()
        return

    assignment = payload["partition"]["assignment"]
    if len(assignment) != len(exp.tokens) or not all(t in assignment for t in exp.tokens):
        r.error = "assignment does not cover the largest component"
        return
    labels = tuple(assignment[t] for t in exp.tokens)
    if set(labels) != set(range(payload["partition"]["community_count"])):
        r.error = "community labels are not dense"
        return
    part = Partition(labels)
    report = payload["report"]
    r.modularity = modularity(exp.graph, part)
    r.nmi = nmi(part, exp.truth)
    if not _close(r.modularity, report["modularity_original"]):
        r.error = f"modularity_original {report['modularity_original']} != {r.modularity}"
    elif not _close(r.nmi, report["nmi"]):
        r.error = f"nmi {report['nmi']} != {r.nmi}"
    else:
        r.fingerprint = partition_fingerprint(assignment)


def timed_op(argv: list[str], trace=None) -> OpResult:
    """One ``edmot.cli.main`` call, timed; ``trace`` is a LayerTrace or None."""
    from edmot import cli

    gc.collect()
    with trace.installed() if trace is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            return OpResult(time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    return OpResult(seconds, None if code == 0 else f"exit code {code}")


def check(r: OpResult, inst: Instance) -> OpResult:
    """Check the output an op wrote, unless the op already failed."""
    if r.error is None:
        try:
            check_output(r, json.loads((inst.directory / "out.json").read_text()), inst.exp)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            r.error = f"unreadable output: {type(exc).__name__}: {exc}"
    return r


def checked_op(inst: Instance, argv: list[str], trace=None) -> OpResult:
    (inst.directory / "out.json").unlink(missing_ok=True)
    return check(timed_op(argv, trace), inst)


# The warm-up op: one CLI call in a fresh interpreter, printing how far it
# raised the interpreter's peak resident set, in KiB. VmHWM belongs to the
# new address space; ru_maxrss would also count the parent's peak.
WARM_UP = """
import sys
from edmot.cli import main

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kib()
code = main(sys.argv[1:])
print(peak_kib() - before)
sys.exit(code)
"""


def warm_up(argv: list[str]) -> tuple[OpResult, float]:
    """Run the warm-up op; returns its result and its peak memory growth in MB."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", WARM_UP, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        return OpResult(seconds, f"exit code {done.returncode}: {done.stderr.strip()}"), 0.0
    return OpResult(seconds), int(done.stdout) / 1024


def reference_fingerprints(w: Workload) -> dict[str, dict[str, str]]:
    """{graph seed: {partitioner seed: fingerprint}} recorded for the workload."""
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text()).get(w.name, {})


def listed_per_layer() -> list[str]:
    """Names of the per-layer metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def measure(w: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    problems: list[str] = []
    pseeds = partitioner_seeds(seed)
    insts = [Instance(seed * INSTANCES + j, work / f"g{j}") for j in range(INSTANCES)]

    # Set-up, once per input graph: generate it, then run one untimed warm-up
    # op on it, each in a fresh interpreter. The warm-up also gives the op's
    # peak memory, without slowing any timed op.
    from edmot import cli  # noqa: F401  (imported before any timed op)
    warm = []
    for inst in insts:
        inst.setup_s, inst.digest = generate(w, inst.seed, inst.directory)
        r, mb = warm_up(inst.argv(w, pseeds[0]))
        inst.setup_s += r.seconds
        inst.exp = expected_for(inst.directory / "edges.txt", inst.directory / "labels.txt", w)
        warm.append((check(r, inst), mb))
    if generate(w, insts[0].seed, work / "repeat")[1] != insts[0].digest:
        problems.append("the same seed produced different input files")
    setup_s = statistics.median(inst.setup_s for inst in insts)
    peak_mb = max(mb for _, mb in warm)
    # Keep the benchmark's own long-lived objects out of the ops' collections.
    gc.collect()
    gc.freeze()
    if traced:
        from layers import LayerTrace

    # Measurement: ops cycle through every (input graph, partitioner seed).
    jobs = [(inst, p) for p in range(len(pseeds)) for inst in insts]
    ops: list[tuple[str, Instance, int, OpResult]] = [
        ("warm-up", inst, 0, r) for inst, (r, _) in zip(insts, warm)]
    plain: list[float] = []
    layered: list[tuple[float, dict]] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        inst, p = jobs[len(plain) % len(jobs)]
        argv = inst.argv(w, pseeds[p])
        r = checked_op(inst, argv)
        plain.append(r.seconds)
        ops.append(("op", inst, p, r))
        if traced:
            trace = LayerTrace()
            t = checked_op(inst, argv, trace)
            if t.error is None and t.fingerprint != r.fingerprint:
                t.error = "traced output differs from the untraced output"
            layered.append((t.seconds, trace.metrics()))
            ops.append(("traced", inst, p, t))

    reference = reference_fingerprints(w)
    mismatches = unreferenced = 0
    for kind, inst, p, r in ops:
        expected = reference.get(str(inst.seed), {}).get(str(pseeds[p]))
        if r.fingerprint is not None and expected is None:
            unreferenced += 1
        elif r.fingerprint is not None and r.fingerprint != expected:
            mismatches += 1
            r.error = "fingerprint differs from fingerprints.json"
        status = "ok" if r.error is None else f"FAILED: {r.error}"
        print(f"{kind} graph={inst.seed} pseed={pseeds[p]} {r.seconds:.4f} s {status} "
              f"fingerprint={(r.fingerprint or '-')[:16]}")
    failed = sum(r.error is not None for _, _, _, r in ops)
    for problem in problems:
        print(f"FAILED: {problem}")

    op_s = statistics.median(plain)
    scored = [r for _, _, _, r in ops if r.nmi is not None]
    print(f"{w.name} seed={seed}: op_s={op_s:.4f} s (median of {len(plain)} ops) "
          f"setup_s={setup_s:.4f} s (median of {len(insts)}) peak_mb={peak_mb:.2f} MB")
    if scored:
        print(f"{w.name} seed={seed}: nmi={statistics.fmean(r.nmi for r in scored):.6f} "
              f"modularity={statistics.fmean(r.modularity for r in scored):.6f} "
              f"(mean of {len(scored)} ops)")
    print(f"{w.name} seed={seed}: error_rate={failed}/{len(ops)} ops; fingerprints: "
          f"{mismatches} mismatched, {unreferenced} without reference")

    if traced:
        per_op = [m for _, m in layered]
        layer = {name: {"value": statistics.median(m[name] for m in per_op),
                        "unit": "s" if name.endswith("_s") else "count"}
                 for name in per_op[0]}
        layer["pipeline.clique_growth"]["unit"] = "ratio"
        traced_s = statistics.median(s for s, _ in layered)
        layer["trace.overhead_s"] = {"value": traced_s - op_s, "unit": "s"}
        for name, m in layer.items():
            print(f"{w.name} seed={seed}: layer {name}={m['value']:.6g} {m['unit']} "
                  f"(median of {len(per_op)} traced ops)")
        # The result carries the layers BENCHMARK.json lists: those every
        # workload's op calls. The rest read 0 on some workload.
        metrics = {name: layer[name] for name in listed_per_layer()}
    else:
        metrics = {"op_s": {"value": op_s, "unit": "s"},
                   "peak_mb": {"value": peak_mb, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    return {"correct": failed == 0 and not problems, "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "edmot" / "cli.py").is_file():
        print(f"error: edmot sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
