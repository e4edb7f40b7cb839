#!/usr/bin/env python3
"""Reproduce the benchmark comparison tables and the K-sensitivity sweeps.

Expects data/ to be populated by fetch_datasets.py; writes CSVs to out/.
Each cell is mean+/-std over consecutive seeds, so re-running with the same
base seed reproduces the files byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from edmot.cli import main as edmot_main  # noqa: E402


def submanifest(data_dir: Path, out_path: Path, names: list[str]) -> Path | None:
    # bench reads relative paths against the sub-manifest's own directory
    data_dir = data_dir.resolve()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    picked = {k: v for k, v in manifest.items() if k in names}
    if not picked:
        return None
    for entry in picked.values():
        entry["edges"] = str(data_dir / entry["edges"])
        if entry.get("labels"):
            entry["labels"] = str(data_dir / entry["labels"])
    out_path.write_text(json.dumps(picked, indent=2))
    return out_path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", type=Path, default=REPO / "data")
    parser.add_argument("--out-dir", type=Path, default=REPO / "out")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sweep-max-k", type=int, default=8)
    args = parser.parse_args()

    if not (args.data_dir / "manifest.json").is_file():
        print(f"no manifest under {args.data_dir}; run fetch_datasets.py first",
              file=sys.stderr)
        return 1
    args.out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("labeled.csv", ["polbooks", "email-Eu-core", "polblogs", "cora"], None),
        ("unlabeled.csv", ["power", "ca-GrQc"], None),
        ("sweep_polblogs.csv", ["polblogs"], f"1..{args.sweep_max_k}"),
        ("sweep_cora.csv", ["cora"], f"1..{args.sweep_max_k}"),
    ]
    rc = 0
    for out_name, names, sweep in jobs:
        sub = submanifest(args.data_dir, args.out_dir / f".{out_name}.manifest.json",
                          names)
        if sub is None:
            print(f"skipping {out_name}: none of {names} fetched")
            continue
        argv = ["bench", "--manifest", str(sub), "--runs", str(args.runs),
                "--seed", str(args.seed), "--output", str(args.out_dir / out_name)]
        if sweep:
            argv += ["--top-k", sweep]
        print(f"writing {args.out_dir / out_name}")
        rc |= edmot_main(argv)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
