"""The library installs with no dependency: ``setup.py`` declares none.

Every ``import`` under ``src/repro`` names the standard library,
``repro`` itself, or — inside ``repro/kernels`` only, where the
vectorized layer degrades to the object layer without it — numpy.
Tests and benchmarks may use more (networkx, hypothesis); the package
may not.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def _imported_modules(tree: ast.AST) -> list[tuple[str, int]]:
    """``(module, line)`` for every absolute import in the module (a
    relative one can only name ``repro``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
    return found


def _allowed(module: str, in_kernels: bool) -> bool:
    top = module.partition(".")[0]
    if top in sys.stdlib_module_names or top == "repro":
        return True
    return top == "numpy" and in_kernels


def test_every_import_is_stdlib_repro_or_kernel_numpy():
    assert SRC / "kernels" / "engine.py" in MODULES
    foreign = []
    for path in MODULES:
        rel = path.relative_to(SRC)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_kernels = rel.parts[0] == "kernels"
        foreign += [
            f"{rel}:{line} {module}"
            for module, line in _imported_modules(tree)
            if not _allowed(module, in_kernels)
        ]
    assert not foreign, "non-stdlib imports:\n" + "\n".join(foreign)


def test_the_rule():
    assert _allowed("collections.abc", in_kernels=False)
    assert _allowed("repro.local.graphs", in_kernels=False)
    assert _allowed("numpy", in_kernels=True)
    assert not _allowed("numpy", in_kernels=False)
    assert not _allowed("networkx", in_kernels=True)
    tree = ast.parse("from . import graphs\nimport os.path, numpy\n")
    assert _imported_modules(tree) == [("os.path", 2), ("numpy", 2)]
