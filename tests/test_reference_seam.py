"""The reference stays off the serving path.

The paper's algorithms (:mod:`repro.reference`) are the oracle; the engine
serves SHARED and EXACT on ``vector`` through the kernel. One seam picks
between them: the engine's wiring and the index factory import the
reference, inside functions, and nothing else in ``src/repro`` does — so
the default engine, alone or behind a router, never loads it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
SEAM = {"repro/core/engine.py", "repro/index/factory.py"}


def reference_imports(tree: ast.AST):
    """``(line, inside a function)`` of every import of ``repro.reference``
    (or of a module in it) in ``tree``."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            names = []
        if any(name.split(".")[:2] == ["repro", "reference"] for name in names):
            found.append((node.lineno, in_function))
        inner = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


def test_only_the_seam_imports_the_reference_and_only_inside_functions():
    importers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name.startswith("repro/reference/"):
            continue
        found = reference_imports(ast.parse(path.read_text(), str(path)))
        if found:
            importers[name] = found
    assert set(importers) == SEAM
    assert all(inside for found in importers.values() for _, inside in found)


SERVE = """
import sys
from repro.cluster import ShardedEngine
from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import generate_workload
from tests.conftest import TINY_WORKLOAD

workload = generate_workload(TINY_WORKLOAD)
config = EngineConfig(%s)
engine = ContextAwareRecommender.from_workload(workload, config)
router = ShardedEngine(workload, 2, config=config)
posts = workload.posts[:20]
served = sum(
    engine.post(post.author_id, post.text, post.timestamp).num_deliveries
    for post in posts
)
routed = sum(
    part.num_deliveries for parts in router.post_batch(posts) for part in parts
)
router.close()
assert served == routed > 0, (served, routed)
print("repro.reference" in sys.modules)
"""


@pytest.mark.parametrize(
    "kwargs, loaded",
    [
        ("", False),
        ("mode=EngineMode.EXACT", False),
        ("searcher='ta'", True),
        ("mode=EngineMode.INCREMENTAL", True),
    ],
    ids=["default", "exact", "ta", "incremental"],
)
def test_the_default_engine_never_loads_the_reference(kwargs, loaded):
    """A fresh interpreter serves posts on one engine and on a two-shard
    router: the kernel's configs leave ``repro.reference`` unloaded, and
    the reference's load it."""
    done = subprocess.run(
        [sys.executable, "-c", SERVE % kwargs],
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(loaded)]
