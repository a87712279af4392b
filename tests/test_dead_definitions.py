"""Every function, method and class defined in `src/` is read, and the program's
own definitions are read by the program.

A definition counts as read when its name is loaded: as a name, an attribute,
an imported name, or a string constant naming it (`"solve_ls"`, or a dotted
path such as `"PretrainDataset.pair_matrices"`, as `getattr`,
`monkeypatch.setattr` and the benchmark's tracer take them).  Dunder methods
are called by Python itself and are exempt.  The match is by name alone, so a
definition that shares its name with one in use passes; what this catches is
a name nothing reads.

Two rules:
- every definition in `src/` is read somewhere under `src/`, `tests/` or
  `perfbench/`;
- a program module is any file under `src/` except `icpo_lab/reference.py`,
  which holds the paper's objects in their direct form for the tests and for
  users.  A definition in a program module must be read from a program module
  or from `perfbench/`.  Reads from `tests/` and from `reference.py` do not
  count, so code that only the tests use lives in `reference.py`, which no
  command imports.  Nor do reads from `perfbench/tracer.py`: its `TARGETS`
  name what it patches, not callers.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")
REFERENCE = ROOT / "src" / "icpo_lab" / "reference.py"
TRACER = ROOT / "perfbench" / "tracer.py"

# Program definitions that no program code reads yet, each with the ROADMAP
# item that gives it a caller.  A name leaves this list when its caller lands.
AWAITING_CALLERS = {
    "coverage_margin": "ROADMAP item 1",
    "compute_metrics": "ROADMAP item 14",
}


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _trees() -> dict[Path, ast.AST]:
    return {path: _parse(path) for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}


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


def _unread(defined: dict[Path, ast.AST], readers: dict[Path, ast.AST]) -> dict[str, str]:
    """`file:line name` -> name for each definition in `defined` that no tree in `readers` reads."""
    read = set().union(*map(_names_read, readers.values()))
    return {
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}": node.name
        for path, tree in defined.items()
        for node in _definitions(tree)
        if node.name not in read
    }


def _is_program(path: Path) -> bool:
    return path.is_relative_to(ROOT / "src") and path != REFERENCE


def test_every_definition_in_src_is_read():
    trees = _trees()
    src = {path: tree for path, tree in trees.items() if path.is_relative_to(ROOT / "src")}
    unread = _unread(src, trees)
    assert not unread, "defined in src/ but never read:\n" + "\n".join(unread)


def test_program_definitions_are_read_by_the_program():
    trees = _trees()
    program = {path: tree for path, tree in trees.items() if _is_program(path)}
    readers = {
        path: tree
        for path, tree in trees.items()
        if _is_program(path) or (path.is_relative_to(ROOT / "perfbench") and path != TRACER)
    }
    unread = _unread(program, readers)
    lines = [f"{where}  (awaits its caller: {AWAITING_CALLERS[name]})" if name in AWAITING_CALLERS else where
             for where, name in unread.items()]
    assert set(unread.values()) == set(AWAITING_CALLERS), (
        "program definitions read only by tests, reference.py or the tracer (move them into "
        "icpo_lab/reference.py, or take a listed name off AWAITING_CALLERS once the program reads it):\n"
        + "\n".join(lines)
    )
