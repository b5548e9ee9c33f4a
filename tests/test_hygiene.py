"""Source hygiene of the package: no unused module-level imports (in the
tests as well), no top-level function or class that nothing references,
one writer of a graded ring's derived state, and the ring's own record of
whether its tables form a ring."""

from __future__ import annotations

import ast
from pathlib import Path

from ringbench.theorems import PROPERTY_IDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))      # conftest.py and slice_oracles.py too


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
    for path in MODULES + TESTS:
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


def test_no_test_only_definitions():
    """Every top-level function or class is called from the package or
    exported by ringbench/__init__.py (its imports count as references): a
    routine that only its own test calls is a second copy of one that does
    the job."""
    used = set()
    for path in (ROOT / "src").rglob("*.py"):
        used |= _names_used(_tree(path))
    orphans = [f"{path.name}: {node.name}"
               for path in MODULES for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in used]
    assert orphans == []


def test_no_ring_checked_parameter():
    """Whether tables form a ring is recorded on the ring, not passed along:
    no function of the package takes a `ring_checked` parameter."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(_tree(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and "ring_checked" in {a.arg for a in ast.walk(node.args)
                                    if isinstance(a, ast.arg)}]
    assert found == []


def test_laws_checked_is_set_where_rings_are_built():
    """FiniteRing.laws_checked is declared and set in rings.py, copied from
    their inputs by the constructions and set by the spec builder once
    validate_ring has passed; no other module assigns it."""
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.keyword) and node.arg == "laws_checked"
                    or isinstance(node, ast.Attribute) and node.attr == "laws_checked"
                    and isinstance(node.ctx, ast.Store)
                    or isinstance(node, ast.AnnAssign)
                    and getattr(node.target, "id", None) == "laws_checked"):
                writers.add(path.name)
    assert writers == {"rings.py", "constructions.py", "specs.py"}


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


def _top_level_owner(tree: ast.Module):
    """(name of the top-level definition, node) for every node in it."""
    for top in tree.body:
        for node in ast.walk(top):
            yield getattr(top, "name", "<module>"), node


def _is_slice_header(node: ast.AST) -> bool:
    """`compress(<lattice>, <ctx>.verdicts("weakly", g))`: the test that
    picks the (g, P) slices of P10-P12 from the g-weakly verdict vector."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "compress"
            and len(node.args) == 2):
        return False
    vec = node.args[1]
    return (isinstance(vec, ast.Call) and getattr(vec.func, "attr", None) == "verdicts"
            and len(vec.args) == 2 and getattr(vec.args[0], "value", None) == "weakly")


def test_slice_header_only_in_ring_context():
    """The (g, P) slice header, P's entry of the g-weakly verdict vector,
    is written once, in RingContext; P10-P12 iterate its slices."""
    owners = [f"{path.name}:{owner}" for path in MODULES
              for owner, node in _top_level_owner(_tree(path)) if _is_slice_header(node)]
    assert owners == ["theorems.py:RingContext"]


def _named(node: ast.AST) -> str | None:
    return getattr(node, "id", None) if isinstance(node, ast.Name) \
        else getattr(node, "attr", None) if isinstance(node, ast.Attribute) else None


def test_only_ring_context_asks_the_predicates():
    """Outside classify.py, lattice_verdicts is named only inside
    RingContext, so every verdict a property reads, on R, R/K or an
    idealization, is an entry of a context's memoized vector; theorems.py
    names no classify.is_* predicate."""
    predicates = {node.name for node in _tree(PACKAGE / "classify.py").body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("is_")}
    owners = {f"{path.name}:{owner}" for path in MODULES if path.name != "classify.py"
              for owner, node in _top_level_owner(_tree(path))
              if _named(node) == "lattice_verdicts"}
    assert owners == {"theorems.py:RingContext"}
    assert {_named(node) for node in ast.walk(_tree(PACKAGE / "theorems.py"))} & predicates \
        == set()


# the per-ideal verdict methods that the verdict vectors replaced
_PER_IDEAL = {"weakly_prime", "two_absorbing", "weakly_2_absorbing", "strongly_weakly",
              "g_weakly", "g_plain", "_verdict"}


def test_checks_call_no_per_ideal_verdict_method():
    """No _check_pN, RingContext.slices or search_ring calls a per-ideal
    verdict method, and RingContext defines none: they index verdict
    vectors."""
    tree = _tree(PACKAGE / "theorems.py")
    context = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "RingContext")
    readers = [fn for fn in tree.body + context.body if isinstance(fn, ast.FunctionDef)
               and (fn.name.startswith("_check_p") or fn.name in ("slices", "search_ring"))]
    assert len(readers) == 21
    calls = [f"{fn.name}:{node.lineno}" for fn in readers for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _named(node.func) in _PER_IDEAL]
    assert calls == []
    assert {fn.name for fn in context.body if isinstance(fn, ast.FunctionDef)} & _PER_IDEAL \
        == set()


# what a loop over census rows or over (A, B, K) would iterate
_ROW_SOURCES = {"triples", "census", "lattice", "one_sided", "masks", "lefts"}


def test_degree_slice_checks_read_tables():
    """_check_p10, _check_p11 and _check_p12 loop neither over a census's
    rows nor over ideals (a `range` over blocks is allowed), and call no
    .tolist()."""
    tree = _tree(PACKAGE / "theorems.py")
    checks = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("_check_p10", "_check_p11", "_check_p12")}
    assert len(checks) == 3
    found = []
    for name, fn in checks.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "tolist":
                found.append(f"{name}:{node.lineno} .tolist()")
            if isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range":
                    continue
                read = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(it)}
                if read & _ROW_SOURCES:
                    found.append(f"{name}:{it.lineno} loops over {sorted(read & _ROW_SOURCES)}")
    assert found == []


def test_runner_owns_every_property_outcome():
    """run_property is the one place a PropertyOutcome is made; each
    _check_pN fills the outcome it is given and returns nothing, and _CHECKS
    lists the checks under PROPERTY_IDS, in order, each by its own name."""
    tree = _tree(PACKAGE / "theorems.py")
    makers = {f"{path.name}:{owner}" for path in MODULES
              for owner, node in _top_level_owner(_tree(path))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "PropertyOutcome"}
    assert makers == {"theorems.py:run_property"}
    returns = [f"{fn.name}:{node.lineno}" for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_check_p")
               for node in ast.walk(fn) if isinstance(node, ast.Return) and node.value is not None]
    assert returns == []
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_CHECKS"])
    keys = [k.value for k in table.keys]
    assert keys == list(PROPERTY_IDS)
    assert [v.id for v in table.values] == [f"_check_{k.lower()}" for k in keys]


def _mul_ix_gather(node: ast.AST) -> bool:
    """`<...>.mul[np.ix_(...)]` or `mul[np.ix_(...)]`: a gather from the dense table."""
    return (isinstance(node, ast.Subscript) and _named(node.value) == "mul"
            and isinstance(node.slice, ast.Call) and _named(node.slice.func) == "ix_")


def test_kernels_read_products_through_the_ring():
    """classify.py gathers products on index sets through
    FiniteRing.products, which an idealization evaluates from its pair rule,
    never as ring.mul[np.ix_(...)]: only raw_product_mask does, on the raw
    route that stays independent of the kernels. The sandwich, triple and
    product kernels call products."""
    tree = _tree(PACKAGE / "classify.py")
    gathers = {owner for owner, node in _top_level_owner(tree) if _mul_ix_gather(node)}
    assert gathers == {"raw_product_mask"}
    readers = {owner for owner, node in _top_level_owner(tree)
               if isinstance(node, ast.Call) and _named(node.func) == "products"}
    assert {"_sandwich_kernel", "_triple_kernel", "_products"} <= readers


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _named(node.func) == name]


def test_idealizations_are_built_only_for_their_vectors():
    """theorems.py builds R(+)M with _idealization only inside
    RingContext.idealizations, which keeps R(+)M's verdict vectors and not
    R(+)M: that method makes no RingContext, and no RingContext(...) call
    anywhere takes an _idealization(...) result."""
    tree = _tree(PACKAGE / "theorems.py")
    context = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "RingContext")
    method = next(fn for fn in context.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "idealizations")
    inside = {id(node) for node in ast.walk(method)}
    builds = _calls(tree, "_idealization")
    assert builds and [node.lineno for node in builds if id(node) not in inside] == []
    assert _calls(method, "RingContext") == []
    assert [node.lineno for node in _calls(tree, "RingContext")
            if _calls(node, "_idealization")] == []
