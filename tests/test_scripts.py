"""The dataset scripts, run as a user runs them: by path, in a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# two 5-cliques joined by one edge, each clique one ground-truth class
TWO_CLIQUES = [(u, v) for base in (0, 5) for u in range(base, base + 5)
               for v in range(u + 1, base + 5)] + [(4, 5)]


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def write_dataset(data, name):
    data.mkdir(exist_ok=True)
    (data / f"{name}.edges").write_text("".join(f"{u} {v}\n" for u, v in TWO_CLIQUES))
    (data / f"{name}.labels").write_text("".join(f"{u} {u // 5}\n" for u in range(10)))


def test_reproduce_tables_with_relative_data_dir(tmp_path):
    write_dataset(tmp_path / "data", "polbooks")
    manifest = {"polbooks": {"edges": "polbooks.edges", "labels": "polbooks.labels"}}
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    proc = run_script("reproduce_tables.py", "--data-dir", "data", "--out-dir", "out",
                      "--runs", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "labeled.csv").read_text().splitlines()
    assert rows[1] == "metric,method,polbooks"
    assert len(rows) > 2
    assert not any(cell == "error" for row in rows[2:] for cell in row.split(","))


def test_reproduce_tables_fails_on_a_table_without_numbers(tmp_path):
    # the only listed dataset's edge file is missing, so every cell is error
    data = tmp_path / "data"
    data.mkdir()
    manifest = {"polbooks": {"edges": "polbooks.edges", "labels": "polbooks.labels"}}
    (data / "manifest.json").write_text(json.dumps(manifest))
    proc = run_script("reproduce_tables.py", "--data-dir", "data", "--out-dir", "out",
                      "--runs", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "error [bench]" in proc.stderr
    rows = (tmp_path / "out" / "labeled.csv").read_text().splitlines()
    assert all(row.endswith(",error") for row in rows[2:])


def test_fetch_only_keeps_datasets_already_present(tmp_path):
    # both edge files exist, so nothing is downloaded
    for name in ("polbooks", "cora"):
        write_dataset(tmp_path, name)
    proc = run_script("fetch_datasets.py", "--dest", str(tmp_path), "--only", "cora",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest) == ["cora", "polbooks"]
    # no "k": bench's default K of 1 holds for every dataset
    assert manifest["polbooks"] == {"edges": "polbooks.edges", "labels": "polbooks.labels"}
