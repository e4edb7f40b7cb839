#!/usr/bin/env python3
"""Record the reference output fingerprints that ``run.py`` compares against.

Usage (from the repository root):

    python3 perfbench/record_fingerprints.py

For every workload and every (input graph, partitioner seed) that runs with
``--seed`` in ``0..run.REFERENCE_SEEDS-1`` use, this runs one checked op and writes
``perfbench/fingerprints.json`` as
``{workload: {graph seed: {partitioner seed: fingerprint}}}``. A
``components`` op takes no partitioner seed, so it runs once per graph.
Record again only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))

    work = run.ROOT / ".bench_work" / "record"
    table: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for w in WORKLOADS.values():
            for seed in range(run.REFERENCE_SEEDS):
                for j in range(run.INSTANCES):
                    inst = run.Instance(seed * run.INSTANCES + j, work)
                    run.generate(w, inst.seed, work)
                    inst.exp = run.expected_for(work / "edges.txt", work / "labels.txt", w)
                    by_argv: dict[tuple[str, ...], str] = {}
                    row = table.setdefault(w.name, {}).setdefault(str(inst.seed), {})
                    for pseed in run.partitioner_seeds(seed):
                        argv = tuple(inst.argv(w, pseed))
                        if argv not in by_argv:
                            r = run.checked_op(inst, list(argv))
                            if r.error is not None:
                                raise SystemExit(f"{w.name} graph {inst.seed}: {r.error}")
                            by_argv[argv] = r.fingerprint
                        row[str(pseed)] = by_argv[argv]
                    print(w.name, inst.seed, {p: f[:12] for p, f in row.items()}, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
