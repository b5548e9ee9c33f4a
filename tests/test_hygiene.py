"""Source hygiene of the package: no unused module-level imports, no
top-level function or class that nothing references, and one writer of a
graded ring's derived state."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(tree: ast.AST) -> set[str]:
    """Identifiers read as names or attributes, imported by name, or spelled
    out in a string constant (getattr-style lookups)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_module_level_imports_are_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        for node in imports:
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_top_level_definitions_are_referenced():
    sources = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    used = set()
    for path in sources:
        used |= _names_used(_tree(path))
    orphans = [f"{path.name}: {node.name}"
               for path in MODULES for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in used]
    assert orphans == []


_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear"}


def _is_cache(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def test_only_grading_writes_ring_caches():
    """GradedRing.memo is the one writer of `gr._cache`: no other module
    stores into it, deletes from it or calls a mutating method on it.
    Reads are allowed."""
    writes = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "grading.py":
            continue
        for node in ast.walk(_tree(path)):
            stored = (isinstance(node, (ast.Subscript, ast.Attribute))
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      and (_is_cache(node) or _is_cache(getattr(node, "value", None))))
            mutated = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr in _MUTATORS and _is_cache(node.func.value))
            if stored or mutated:
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []
