"""The README's library example runs as written, on a small generated graph, and
imports only the package's public names."""

import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import edmot
from edmot.graph import write_edge_list
from util import gnp

REPO_ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The first ```python block of the README's ``## Library`` section."""
    section = (REPO_ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README ## Library has no python block"
    return match.group(1)


def test_library_example_runs(tmp_path):
    code = library_example()
    assert '"cora.edges"' in code
    edges = tmp_path / "g.edges"
    edges.write_text(write_edge_list(gnp(40, 0.2, random.Random(3))))
    code = code.replace('"cora.edges"', repr(str(edges)))
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


def test_library_example_uses_only_public_names():
    imported = {alias.name for node in ast.walk(ast.parse(library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "edmot"
                for alias in node.names}
    assert imported, "README ## Library imports nothing from edmot"
    assert sorted(imported - set(edmot.__all__)) == []
    # no stale entry: every exported name resolves on the package
    assert [name for name in edmot.__all__ if not hasattr(edmot, name)] == []
