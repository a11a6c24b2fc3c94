"""Every public top-level function and class in ``src/repro`` has a use.

A definition passes when some module under ``src/repro`` reads its name
(its own module included, its own body not), when a ``register_*``
decorator registers it, or when :data:`KEPT` lists it.  Package
re-exports and ``__all__`` strings do not count as reads.  A read is a
name load (annotations included) or an attribute load
(``registry.problem(...)``).

A top-level function that shares its name with a class member (a
method or class attribute anywhere in ``src/repro``) cannot be told
from the member by an attribute load on some object.  Such a function
counts as read only through a name load in its own module or in a
module that imports it, a ``from ... import`` of it outside a package's
``__init__``, or an attribute load on its own module or package.

:data:`KEPT` only shrinks: an entry fails the suite once it gains a
caller in ``src/`` or its definition is gone.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

#: Public definitions that nothing in ``src/`` calls, kept on purpose,
#: grouped by why.  Entries are ``module path:name``.
KEPT: dict[str, tuple[str, ...]] = {
    # Paper statements for the verdict, Theorem 11 ladder and claims
    # work to call (ROADMAP items 4-6).  Tests and the paper benches
    # call them today.
    "paper statement": (
        "analysis/growth.py:ratio_series",
        "core/derandomization.py:classify_gap",
        "core/derandomization.py:ghk_deterministic_upper",
        "core/derandomization.py:implied_nd_lower_bound",
        "core/hard_instances.py:simulate_padded_algorithm",
        "core/theory.py:deterministic_prediction",
        "core/theory.py:gap_ratio_prediction",
        "core/theory.py:randomized_prediction",
        "core/theory.py:theorem1_lower",
        "core/theory.py:theorem1_upper",
        "gadgets/ne_encoding.py:compile_ne_proof",
        "gadgets/ne_encoding.py:verify_ne_proof",
        "generators/hard.py:padded_hard_instance",
    ),
    # Test oracles and test inputs: independent reference computations
    # and small instances that the tests and benches check the library
    # with, plus the telemetry switch the overhead bench flips.
    "test oracle": (
        "gadgets/corruptions.py:all_corruptions",
        "core/projection.py:edge_tag",
        "generators/classic.py:complete",
        "generators/classic.py:disjoint_union",
        "generators/classic.py:star",
        "local/distances.py:connected_components",
        "local/distances.py:cycle_containment_radius",
        "local/distances.py:diameter",
        "local/distances.py:multi_source_bfs",
        "obs/telemetry.py:set_enabled",
    ),
    # perfbench/layers.py probes it by name (its traced pass counts
    # configuration-model attempts per instance).
    "benchmark probe": ("generators/regular.py:configuration_model",),
    # Retired together with run_sweep by ROADMAP item 6.
    "retiring": ("analysis/landscape.py:measure_row",),
}


def _reads(node: ast.AST) -> set[str]:
    """Every name ``node`` reads."""
    found: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
    return found


def _class_members(tree: ast.Module) -> set[str]:
    """The names every class in ``tree`` defines in its body."""
    members: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                members.add(stmt.name)
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            members.update(t.id for t in targets if isinstance(t, ast.Name))
    return members


def _package(module: str) -> str:
    """The ``__init__`` module of the package ``module`` lives in."""
    head, _, _ = module.rpartition("/")
    return f"{head}/__init__.py" if head else "__init__.py"


def _owner_reads(
    modules: dict[str, ast.Module], module: str, tree: ast.Module
) -> set[tuple[str, str]]:
    """``(defining module, name)`` for every read in ``module`` that
    names where the name comes from: a name load of its own definitions
    or of an imported name, a ``from ... import`` outside an
    ``__init__``, and an attribute load on an imported module."""

    def resolve(dotted: str) -> str | None:
        """The module key of a dotted ``repro`` module name, if any."""
        head, _, rest = dotted.partition(".")
        stem = rest.replace(".", "/")
        keys = (f"{stem}.py", f"{stem}/__init__.py") if stem else ("__init__.py",)
        return next((k for k in keys if head == "repro" and k in modules), None)

    bound_modules: dict[str, str] = {}
    imported: dict[str, tuple[str, str]] = {}
    reads: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        source = resolve(node.module)
        for alias in node.names:
            local = alias.asname or alias.name
            submodule = resolve(f"{node.module}.{alias.name}")
            if submodule is not None:
                bound_modules[local] = submodule
            elif source is not None:
                imported[local] = (source, alias.name)
                if not module.endswith("__init__.py"):
                    reads.add(imported[local])
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id != own:
                    reads.add((module, node.id))
                if node.id in imported:
                    reads.add(imported[node.id])
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound_modules
            ):
                reads.add((bound_modules[node.value.id], node.attr))
    return reads


def _registered(node: ast.FunctionDef | ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        func = getattr(decorator, "func", None)
        name = getattr(func, "id", None) or getattr(func, "attr", "")
        if name.startswith("register_"):
            return True
    return False


def census(modules: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """``(defined, unread)``: every public top-level function or class,
    and those that no module reads and no decorator registers, each as
    ``module:name``."""
    defined: set[str] = set()
    unregistered: dict[str, str] = {}  # module:name -> name
    functions: set[str] = set()
    reads: set[str] = set()
    members: set[str] = set()
    owner_reads: set[tuple[str, str]] = set()
    for module, tree in modules.items():
        members |= _class_members(tree)
        owner_reads |= _owner_reads(modules, module, tree)
        for stmt in tree.body:
            read = _reads(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                read.discard(stmt.name)  # a definition does not use itself
                if not stmt.name.startswith("_"):
                    key = f"{module}:{stmt.name}"
                    defined.add(key)
                    if not isinstance(stmt, ast.ClassDef):
                        functions.add(key)
                    if not _registered(stmt):
                        unregistered[key] = stmt.name
            reads |= read

    def is_read(key: str, name: str) -> bool:
        if key in functions and name in members:
            module = key.partition(":")[0]
            return bool({(module, name), (_package(module), name)} & owner_reads)
        return name in reads

    unread = {key for key, name in unregistered.items() if not is_read(key, name)}
    return defined, unread


def _source_census() -> tuple[set[str], set[str]]:
    return census(
        {
            path.relative_to(SRC).as_posix(): ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
            for path in MODULES
        }
    )


KEPT_NAMES = {name for names in KEPT.values() for name in names}


def test_every_public_definition_has_a_use():
    assert SRC / "engine" / "cli.py" in MODULES
    _defined, unread = _source_census()
    missing = sorted(unread - KEPT_NAMES)
    assert not missing, (
        "public definitions nothing in src/ reads (delete them, move them "
        "to tests/, or add them to KEPT with a reason):\n" + "\n".join(missing)
    )


def test_kept_entries_are_defined_and_still_unread():
    defined, unread = _source_census()
    gone = sorted(KEPT_NAMES - defined)
    assert not gone, f"KEPT lists definitions that are gone: {gone}"
    called = sorted(KEPT_NAMES & defined - unread)
    assert not called, f"KEPT entries with a caller in src/ now: {called}"


def test_what_counts_as_a_read():
    modules = {
        "a.py": ast.parse(
            "from b import helper\n"
            "__all__ = ['Exported']\n"
            "class Exported: pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def caller(x: Annotated) -> int: return helper(x).method()\n"
            "@register_family('f')\n"
            "def family(n, seed): pass\n"
            "def _private(): pass\n"
        ),
        "b.py": ast.parse(
            "def helper(x): pass\n"
            "class Annotated: pass\n"
            "def method(): pass\n"
        ),
        "__init__.py": ast.parse("from a import caller\n__all__ = ['caller']\n"),
    }
    defined, unread = census(modules)
    assert defined == {
        "a.py:Exported",
        "a.py:recursive",
        "a.py:caller",
        "a.py:family",
        "b.py:helper",
        "b.py:Annotated",
        "b.py:method",
    }
    assert unread == {"a.py:Exported", "a.py:recursive", "a.py:caller"}


def test_a_function_named_like_a_member_needs_a_resolved_read():
    modules = {
        "c.py": ast.parse(
            "class Holder:\n"
            "    def by_attribute(self): pass\n"
            "    def by_import(self): pass\n"
            "    def by_module(self): pass\n"
            "    def by_reexport(self): pass\n"
            "    by_name = None\n"
            "def by_attribute(): pass\n"
            "def by_import(): pass\n"
            "def by_module(): pass\n"
            "def by_reexport(): pass\n"
            "def by_name(): pass\n"
            "def uses(holder): return holder.by_attribute(), by_name()\n"
        ),
        "d.py": ast.parse(
            "from repro import c\n"
            "from repro.c import by_import\n"
            "def calls(): return c.by_module()\n"
        ),
        "__init__.py": ast.parse("from repro.c import by_reexport\n"),
    }
    _defined, unread = census(modules)
    # A method call on some object and a package re-export name no
    # module; an import outside __init__, an attribute of the module and
    # a name load in the module itself do.
    assert unread == {
        "c.py:Holder",
        "c.py:by_attribute",
        "c.py:by_reexport",
        "c.py:uses",
        "d.py:calls",
    }
