"""Every library module reads each name it imports, the package reads
each private name a module defines, and importing the package maps only
the scipy it needs.

A name left behind when the code that read it went is dead weight that no
test would notice. The package's __init__.py imports to re-export and is
not checked. As with flake8, an import whose statement line, or whose own
line, carries "# noqa: F401" is exempt.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

SRC = Path(__file__).resolve().parents[1] / "src" / "cograph"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an unexempted import of source that no Name node reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno)):
                continue
            imported.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_caught_and_a_marked_one_is_not():
    source = (
        "from dataclasses import dataclass\n"
        "from math import (  # noqa: F401\n"
        "    pi,\n"
        ")\n"
        "import numpy as np\n"
        "from os import sep  # noqa: F401\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["dataclass"]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level _private names bound in sources (one per module) that
    no other top-level statement of any of them reads, by name or as an
    attribute. A def or class that reads only itself counts as unread."""
    defined, reads = [], []
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                bound = []
            private = [b for b in bound if b.startswith("_") and not b.startswith("__")]
            defined.extend((name, len(reads)) for name in private)
            reads.append(
                {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            )
    return [
        name for name, at in defined
        if not any(name in r for i, r in enumerate(reads) if i != at)
    ]


def test_package_reads_every_private_module_name():
    # a helper whose last caller went with a simplification is dead weight
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_caught():
    first = (
        "_read = 1\n"
        "_unread = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "def public():\n"
        "    return _read + _imported()\n"
    )
    second = "def _imported():\n    return 0\n"
    assert unread_private_names([first, second]) == ["_unread", "_recursive"]


# scipy stacks that only the s-mlp eigen solve and Matrix Market loading use
ON_FIRST_USE = ("scipy.io", "scipy.linalg", "scipy.sparse.linalg")

FOOTPRINT_SCRIPT = """
import json, sys
stacks = {stacks!r}
loaded = lambda: [m for m in stacks if m in sys.modules]
import cograph, cograph.experiment, cograph.cli
seen = {{"import": loaded()}}
from cograph import SubModelSpec, build_submodel, generate_synthetic
build_submodel(SubModelSpec(kind="s-mlp", k=4), generate_synthetic(30, 2, 0.3, 0.05, 6, 0.0, seed=0))
seen["s-mlp"] = loaded()
seen["mtx_shape"] = list(cograph.io.load_features(sys.argv[1]).shape)
seen["mtx"] = loaded()
print(json.dumps(seen))
"""


def test_import_maps_no_scipy_stack_until_first_use(tmp_path):
    """A fresh interpreter that imports the package, its experiment runner
    and its CLI maps none of ON_FIRST_USE; building s-mlp loads the eigen
    solvers and reading a .mtx file loads the Matrix Market reader."""
    path = tmp_path / "features.mtx"
    scipy.io.mmwrite(path, sp.csr_matrix(np.eye(3)))
    paths = [str(SRC.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT.format(stacks=ON_FIRST_USE), str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    seen = json.loads(out)
    assert seen["import"] == []
    assert seen["s-mlp"] == ["scipy.linalg", "scipy.sparse.linalg"]
    assert seen["mtx_shape"] == [3, 3]
    assert seen["mtx"] == list(ON_FIRST_USE)
