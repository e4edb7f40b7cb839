#!/usr/bin/env python3
"""Download and canonicalize the benchmark networks into data/.

Produces, per dataset, a plain edge list (<name>.edges), a ground-truth
label file (<name>.labels) where labels exist, and a bench manifest
(manifest.json). Sources are the public dataset homepages; nothing is
bundled with the repository. Re-running skips files that already exist.

Expected canonical sizes (nodes / undirected deduplicated edges):
  polbooks        105 / 441
  polblogs       1490 / ~16.7k   (19090 raw arcs before symmetrization)
  cora           2708 / ~5.3k    (5429 raw citation arcs)
  email-Eu-core  1005 / ~16.7k   (25571 raw arcs)
  power          4941 / 6594
  ca-GrQc        5242 / ~14.5k   (28980 raw arcs)

The exact canonical counts are printed after each fetch.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import re
import sys
import tarfile
import urllib.request
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edmot.graph import largest_connected_component, parse_edge_list  # noqa: E402

MEJN = "http://www-personal.umich.edu/~mejn/netdata"
SNAP = "https://snap.stanford.edu/data"
LINQS = "https://linqs-data.soe.ucsc.edu/public/lbc"

NODE_BLOCK = re.compile(r"node\s*\[([^\]]*)\]", re.S)
EDGE_BLOCK = re.compile(r"edge\s*\[([^\]]*)\]", re.S)


def download(url: str) -> bytes:
    print(f"  downloading {url}")
    req = urllib.request.Request(url, headers={"User-Agent": "edmot-fetch/0.1"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.read()


def parse_gml(text: str) -> tuple[list[tuple[str, str | None]], list[tuple[str, str]]]:
    """Extract (node id, optional value) and (source, target) pairs."""
    nodes = []
    for block in NODE_BLOCK.finditer(text):
        body = block.group(1)
        node_id = re.search(r"\bid\s+(\S+)", body)
        value = re.search(r"\bvalue\s+(\"[^\"]*\"|\S+)", body)
        if node_id is None:
            continue
        val = value.group(1).strip('"') if value else None
        nodes.append((node_id.group(1), val))
    edges = []
    for block in EDGE_BLOCK.finditer(text):
        body = block.group(1)
        src = re.search(r"\bsource\s+(\S+)", body)
        dst = re.search(r"\btarget\s+(\S+)", body)
        if src and dst:
            edges.append((src.group(1), dst.group(1)))
    return nodes, edges


def write_outputs(dest: Path, name: str, edge_lines: list[str],
                  label_lines: list[str] | None) -> None:
    (dest / f"{name}.edges").write_text("".join(edge_lines))
    if label_lines:
        (dest / f"{name}.labels").write_text("".join(label_lines))


def report(dest: Path, name: str) -> None:
    g, _ = parse_edge_list((dest / f"{name}.edges").read_bytes())
    lcc, _ = largest_connected_component(g)
    print(f"  {name}: n={g.node_count} m={g.edge_count} "
          f"(largest component: n={lcc.node_count} m={lcc.edge_count})")


def fetch_gml_zip(dest: Path, name: str, labeled: bool) -> None:
    raw = download(f"{MEJN}/{name}.zip")
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        gml_name = next(n for n in zf.namelist() if n.endswith(".gml"))
        text = zf.read(gml_name).decode("utf-8", errors="replace")
    nodes, edges = parse_gml(text)
    edge_lines = [f"{a} {b}\n" for a, b in edges]
    label_lines = None
    if labeled:
        label_lines = [f"{nid} {val}\n" for nid, val in nodes if val is not None]
    write_outputs(dest, name, edge_lines, label_lines)


def fetch_cora(dest: Path) -> None:
    raw = download(f"{LINQS}/cora.tgz")
    with tarfile.open(fileobj=io.BytesIO(raw), mode="r:gz") as tf:
        cites = tf.extractfile("cora/cora.cites").read().decode()
        content = tf.extractfile("cora/cora.content").read().decode()
    edge_lines = []
    for line in cites.splitlines():
        parts = line.split()
        if len(parts) == 2:
            edge_lines.append(f"{parts[0]} {parts[1]}\n")
    label_lines = []
    for line in content.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            label_lines.append(f"{parts[0]} {parts[-1]}\n")
    write_outputs(dest, "cora", edge_lines, label_lines)


def fetch_snap_txt(dest: Path, name: str, edges_url: str,
                   labels_url: str | None = None) -> None:
    text = gzip.decompress(download(edges_url)).decode()
    edge_lines = [line + "\n" for line in text.splitlines()
                  if line.strip() and not line.startswith("#")]
    label_lines = None
    if labels_url:
        ltext = gzip.decompress(download(labels_url)).decode()
        label_lines = [line + "\n" for line in ltext.splitlines()
                       if line.strip() and not line.startswith("#")]
    write_outputs(dest, name, edge_lines, label_lines)


FETCHERS = {
    "polbooks": lambda d: fetch_gml_zip(d, "polbooks", labeled=True),
    "polblogs": lambda d: fetch_gml_zip(d, "polblogs", labeled=True),
    "power": lambda d: fetch_gml_zip(d, "power", labeled=False),
    "cora": fetch_cora,
    "email-Eu-core": lambda d: fetch_snap_txt(
        d, "email-Eu-core",
        f"{SNAP}/email-Eu-core.txt.gz",
        f"{SNAP}/email-Eu-core-department-labels.txt.gz"),
    "ca-GrQc": lambda d: fetch_snap_txt(d, "ca-GrQc", f"{SNAP}/ca-GrQc.txt.gz"),
}


def write_manifest(dest: Path) -> None:
    """List every known dataset whose edge file is under ``dest``."""
    entries = {}
    for name in FETCHERS:
        if not (dest / f"{name}.edges").is_file():
            continue
        entry = {"edges": f"{name}.edges"}
        if (dest / f"{name}.labels").is_file():
            entry["labels"] = f"{name}.labels"
        entries[name] = entry
    (dest / "manifest.json").write_text(json.dumps(entries, indent=2) + "\n")
    print(f"wrote {dest / 'manifest.json'} with {len(entries)} datasets")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dest", default=Path(__file__).resolve().parents[1] / "data",
                        type=Path)
    parser.add_argument("--only", nargs="*", choices=sorted(FETCHERS),
                        help="fetch a subset of datasets")
    args = parser.parse_args()
    dest: Path = args.dest
    dest.mkdir(parents=True, exist_ok=True)
    names = args.only or list(FETCHERS)
    failures = 0
    for name in names:
        print(f"[{name}]")
        if (dest / f"{name}.edges").is_file():
            print("  already present, skipping download")
            report(dest, name)
            continue
        try:
            FETCHERS[name](dest)
            report(dest, name)
        except Exception as exc:
            failures += 1
            print(f"  FAILED: {exc}", file=sys.stderr)
    write_manifest(dest)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
