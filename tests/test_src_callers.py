"""Every definition under ``src/`` earns a caller.

A top-level function or class, or a method of a top-level class, under
``src/repro`` must be named somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own body: by a call, an attribute read, a
subclass, a string a dispatcher builds. What the test suite alone
reaches is not part of the program — an oracle for other code lives in
``tests/helpers.py`` instead. Imports, ``__all__`` lists, docstrings
and comment lines name a definition without using it, so they do not
count. Dunder methods are called by the interpreter and are exempt.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = ("src", "benchmarks", "examples")

#: Definitions nothing under ``CALLERS`` names, each for a reason.
ALLOWED = {
    # http.server dispatches a request to ``do_<METHOD>`` by name, and
    # calls these two hooks of BaseHTTPRequestHandler itself.
    "serving/httpd.py:MatchRequestHandler.do_GET",
    "serving/httpd.py:MatchRequestHandler.do_POST",
    "serving/httpd.py:MatchRequestHandler.do_DELETE",
    "serving/httpd.py:MatchRequestHandler.log_message",
    "serving/httpd.py:MatchRequestHandler.handle_expect_100",
    # Goes when the process shards go; until then their crash tests
    # read the worker pids to kill them.
    "serving/executors.py:ProcessExecutor.worker_pids",
}

WORD = re.compile(r"\w+")


def _statements(body):
    """Every statement, nested ones included (expressions hold none of
    what :func:`_unused_lines` looks for)."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _statements(getattr(node, field, ()))


def _unused_lines(tree: ast.Module) -> set:
    """0-based line numbers that name without using: imports,
    ``__all__`` and docstrings."""
    lines = set()
    for node in _statements([tree]):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno - 1, node.end_lineno))
        elif isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno - 1, doc.end_lineno))
    return lines


def _words(source: str, skip: set) -> list:
    """Per line, the words it names (comment lines and ``skip`` empty)."""
    return [
        []
        if row in skip or line.lstrip().startswith("#")
        else WORD.findall(line)
        for row, line in enumerate(source.splitlines())
    ]


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{member.name}", member


@functools.lru_cache(maxsize=None)
def uncalled_definitions() -> tuple:
    words, trees = {}, {}
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            words[path] = _words(source, _unused_lines(tree))
            trees[path] = tree
    named = Counter(
        word for per_line in words.values() for line in per_line for word in line
    )
    found = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = (node.decorator_list or [node])[0].lineno - 1
            own = sum(
                line.count(name) for line in words[path][first:node.end_lineno]
            )
            if named[name] == own:
                found.append(f"{path.relative_to(SRC).as_posix()}:{qualified}")
    return tuple(found)


def test_every_definition_under_src_has_a_caller():
    uncalled = [d for d in uncalled_definitions() if d not in ALLOWED]
    assert not uncalled, (
        "reached from nowhere in src/, benchmarks/ or examples/ (delete "
        "them, or move a test oracle into tests/helpers.py): "
        + ", ".join(uncalled)
    )


def test_allowlist_entries_still_exist():
    assert ALLOWED <= set(uncalled_definitions())
