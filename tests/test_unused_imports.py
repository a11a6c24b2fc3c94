"""No module under ``src/repro`` imports a name it never uses.

No linter ships with the test environment, so this walks the package
with :mod:`ast` instead.  A name counts as used when the module reads
it anywhere, mentions it in a string annotation (``-> "NeLCL"``), or
lists it in ``__all__``.  Package ``__init__`` modules are skipped:
their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.AST) -> list[tuple[str, int]]:
    """``(bound name, line)`` for every import in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.append((alias.asname or alias.name, node.lineno))
    return names


def _annotation_names(annotation: ast.AST | None) -> set[str]:
    """The names read by an annotation, string annotations included."""
    found: set[str] = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                found |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                continue
    return found


def _used(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def test_the_walk_finds_the_package():
    assert len(MODULES) > 50
    assert SRC / "engine" / "cli.py" in MODULES


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line} {name}"
            for name, line in _imported(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_string_annotations_and_all_count_as_used():
    tree = ast.parse(
        "from a import B, C, D, E\n"
        "__all__ = ['C']\n"
        "def f(x: 'B') -> 'list[D]':\n"
        "    return x\n"
    )
    unused = {name for name, _ in _imported(tree) if name not in _used(tree)}
    assert unused == {"E"}
