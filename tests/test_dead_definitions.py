"""Every function, method and class defined in `src/` is read somewhere.

A definition counts as read when its name is loaded anywhere under `src/`,
`tests/` or `perfbench/`: as a name, an attribute, an imported name, or a
string constant naming it (`"solve_ls"`, or a dotted path such as
`"PretrainDataset.pair_matrices"`, as `getattr`, `monkeypatch.setattr` and the
benchmark's tracer take them).  Dunder methods are called by Python itself
and are exempt.  The match is by name alone, so a definition that shares its
name with one in use passes; what this catches is a name nothing reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree: ast.AST) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def _definitions(tree: ast.AST) -> list[ast.AST]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_in_src_is_read():
    trees = {path: _parse(path) for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    unread = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
        for node in _definitions(tree)
        if node.name not in read
    ]
    assert not unread, "defined in src/ but never read:\n" + "\n".join(unread)
