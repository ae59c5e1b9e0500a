"""The query model and the mining systems sit below the serving stack.

``repro.config`` and ``repro.system`` build one Pattern Base and one
``MatchEngine``; shards, deployment modes and replicas exist only
behind ``repro serve``. So neither imports anything — at module level
or inside a function — from ``repro.serving`` or
``repro.retrieval.shards``, nor a name the ``repro.retrieval`` package
re-exports from the latter.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LOWER = [SRC / "config.py", *sorted((SRC / "system").glob("*.py"))]
SHARD_NAMES = {
    node.name
    for node in ast.parse((SRC / "retrieval" / "shards.py").read_text()).body
    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
}


def _serving_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
            if node.module == "repro.retrieval":
                modules += [
                    "repro.retrieval.shards"
                    for alias in node.names
                    if alias.name in SHARD_NAMES
                ]
        else:
            continue
        for module in modules:
            if any(
                module == top or module.startswith(top + ".")
                for top in ("repro.serving", "repro.retrieval.shards")
            ):
                yield f"{path.relative_to(SRC).as_posix()}: {module}"


def test_config_and_system_import_nothing_from_serving():
    offending = [hit for path in LOWER for hit in _serving_imports(path)]
    assert not offending, offending
