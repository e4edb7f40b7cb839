#!/usr/bin/env python3
"""Time the triangle hypergraph kernel across graph sizes and fit the log-log slope.

Times ``build_motif_adjacency``, the kernel that ``detect``, ``motif`` and
``bench`` run: one common-neighbour count per edge, so the work is O(sum over
edges of the smaller end degree). The ``components`` command does not run
it: ``components.motif_components`` only tests each edge for a common
neighbour, in the kernel's sweep order. Generates uniform random
graphs at a fixed average degree, so the edge count is the scale variable;
prints a timing table and the fitted growth exponent against the 1.7 budget,
and exits 1 when the slope is above it. Acceptance criterion 9 runs it at
sizes 1e3 to 1e5.

    python3 scripts/triangle_scaling.py --sizes 1000 10000 100000
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edmot.graph import Graph, build_motif_adjacency  # noqa: E402

SLOPE_BUDGET = 1.7


def gnm(n: int, m: int, rng: random.Random) -> Graph:
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return Graph.from_pairs(n, sorted(chosen))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10**3, 10**4, 10**5, 3 * 10**5])
    parser.add_argument("--avg-degree", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    points = []
    print(f"{'m':>9} {'n':>9} {'triangles':>10} {'hyperedges':>10} {'best_ms':>9}")
    for m in args.sizes:
        n = max(3, int(2 * m / args.avg_degree))
        g = gnm(n, m, rng)
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            h = build_motif_adjacency(g)
            times.append(time.perf_counter() - t0)
        best = min(times)
        points.append((math.log(m), math.log(best)))
        tri = int(h.total_weight) // 3
        print(f"{m:>9} {n:>9} {tri:>10} {h.edge_count:>10} {best * 1e3:>9.2f}")

    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    xm, ym = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - xm) * (y - ym) for x, y in points)
             / sum((x - xm) ** 2 for x in xs))
    print(f"fitted log-log slope: {slope:.3f} (budget: <= {SLOPE_BUDGET})")
    if slope > SLOPE_BUDGET:
        print(f"FAIL: the kernel scales worse than the {SLOPE_BUDGET} budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
