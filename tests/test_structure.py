"""Conventions that live in one place: only groups.py knows the inverse-label
suffix, only image_order builds a stabilizer chain, only FieldHom.generator_images
maps a spec's generators through a hom, only FieldHom.derive builds a hom's
images from its exponents and ell, only gl_order_bound raises q to m^2, only
ReductionBudget's fields name the budgets, witness_from_data takes its keys
from WitnessRecord's fields, only algebra.power runs a square-and-multiply
loop, a modular inverse is pow(c, -1, p) and never a Fermat power
pow(c, p - 2, p), the only process-wide state is two caches of pure field
data, and every public function and class in src/ is used outside the
tests."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import finquot
from finquot.profiler import ReductionBudget
from finquot.witness import WitnessRecord

# callee name -> the one function allowed to call it
_SOLE_CALLERS = {"stabilizer_chain_order": "image_order", "apply_matrix": "generator_images"}

# the only process-wide state allowed: caches of pure field data, which hold
# no result of a scan or a search
_PURE_DATA_CACHES = {"fields.py:finite_field", "algebra.py:_KNOWN_PRIMES"}
_CACHE_DECORATORS = {"lru_cache", "cache"}
_MUTATORS = {"add", "setdefault", "update", "append", "extend", "insert"}
_CONTAINER_CALLS = {
    "dict", "set", "list", "defaultdict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary", "WeakSet",
}


def _parse(paths):
    paths = sorted(paths)
    assert paths
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in paths]


def _modules():
    return _parse(Path(finquot.__file__).resolve().parent.glob("*.py"))


def _nodes(tree):
    """(node, enclosing function name) for every node in the tree."""
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        yield node, func
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def _calls(tree):
    """(callee name, enclosing function name, line) for every call in the tree."""
    return [(_name(node), func, node.lineno) for node, func in _nodes(tree) if isinstance(node, ast.Call)]


def test_inverse_suffix_literal_only_in_groups():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "groups.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "^-1"
    ]
    assert found == []


def test_closure_and_generator_images_have_one_caller():
    callers = {callee: set() for callee in _SOLE_CALLERS}
    for name, tree in _modules():
        for callee, func, line in _calls(tree):
            if callee in callers:
                callers[callee].add(func if func == _SOLE_CALLERS[callee] else f"{name}:{line} {func}")
    assert callers == {callee: {func} for callee, func in _SOLE_CALLERS.items()}


def test_one_square_and_multiply_loop():
    # every ring powers through algebra.power; a second `e >>= 1` loop is a second copy
    found = [
        f"{name}:{node.lineno} {func}"
        for name, tree in _modules()
        for node, func in _nodes(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
        if (name, func) != ("algebra.py", "power")
    ]
    assert found == []


def test_no_fermat_inverse():
    # the builtin pow(c, -1, p) is the one modular inverse
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow"
        if len(node.args) > 1 and ast.unparse(node.args[1]).endswith(" - 2")
    ]
    assert found == []


def test_images_derived_only_by_the_hom_constructor():
    # encode((0, 1)) is x, the base of every extension-field image
    found = [
        f"{name} {func}"
        for name, tree in _modules()
        for node, func in _nodes(tree)
        if isinstance(node, ast.Call) and _name(node) == "encode"
        if [ast.unparse(arg) for arg in node.args] == ["(0, 1)"]
    ]
    assert found == ["witness.py derive"]


def _is_square(node):
    return isinstance(node, ast.BinOp) and (
        (isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "2")
        or (isinstance(node.op, ast.Mult) and ast.unparse(node.left) == ast.unparse(node.right))
    )


def test_one_gl_bound_rule():
    # q ** (m ** 2) or q ** (m * m) outside gl_order_bound is a second copy
    found = [
        f"{name} {func}"
        for name, tree in _modules()
        for node, func in _nodes(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _is_square(node.right)
    ]
    assert found == ["witness.py gl_order_bound"]


def test_witness_keys_only_as_record_fields():
    # a string literal equal to a record field in the loader is a hand-written key list
    names = {f.name for f in dataclasses.fields(WitnessRecord)}
    [loader] = [
        node
        for name, tree in _modules()
        if name == "serialize.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "witness_from_data"
    ]
    found = [
        f"{node.lineno} {node.value}"
        for node in ast.walk(loader)
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert found == []


def test_budget_names_only_as_reduction_budget_fields():
    # a string literal equal to a budget name is a hand-written key list
    names = {f.name for f in dataclasses.fields(ReductionBudget)}
    assert names
    found = [
        f"{name}:{node.lineno} {node.value}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert found == []


def _name(node):
    """The bare name of a Name, an Attribute or a Call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _module_containers(tree):
    """Names bound at module level to a dict, set or list."""
    literals = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, literals) or (isinstance(value, ast.Call) and _name(value) in _CONTAINER_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _process_wide_state(name, tree):
    """module:name for every weakref import, functools cache decorator, and
    module-level container that a function mutates."""
    found = set()
    containers = _module_containers(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "weakref" for a in node.names):
            found.add(f"{name}:weakref")
        if isinstance(node, ast.ImportFrom) and node.module == "weakref":
            found.add(f"{name}:weakref")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_name(d) in _CACHE_DECORATORS for d in node.decorator_list):
            found.add(f"{name}:{node.name}")
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                target, mutates = inner.func.value, inner.func.attr in _MUTATORS
            elif isinstance(inner, ast.Subscript) and isinstance(inner.ctx, (ast.Store, ast.Del)):
                target, mutates = inner.value, True
            else:
                continue
            if mutates and isinstance(target, ast.Name) and target.id in containers:
                found.add(f"{name}:{target.id}")
    return found


def test_process_wide_state_is_pure_field_data():
    # a cache that outlives one call makes every later benchmark pass cheaper
    found = set().union(*(_process_wide_state(name, tree) for name, tree in _modules()))
    assert found == _PURE_DATA_CACHES


def _references(tree):
    """Names a module refers to through a Name, an Attribute or an ImportFrom,
    leaving out each top-level definition's references to itself."""
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update(n for n in names if n != owner)
    return found


def test_no_test_only_names():
    # a public name that only tests reach is a test oracle living in src/
    root = Path(__file__).resolve().parents[1]
    modules = [(name, tree) for name, tree in _modules() if name != "__init__.py"]
    users = modules + _parse(root.glob("demos/*.py")) + _parse(root.glob("perfbench/*.py"))
    used = set().union(*(_references(tree) for _, tree in users))
    found = [
        f"{name}:{node.name}"
        for name, tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if not node.name.startswith("_") and node.name not in used
    ]
    assert found == []
