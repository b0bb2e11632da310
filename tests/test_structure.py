"""Conventions that live in one place: only groups.py knows the inverse-label
suffix, only image_order builds a stabilizer chain, only FieldHom.generator_images
maps a spec's generators through a hom, and only ReductionBudget's fields
name the budgets."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import finquot
from finquot.profiler import ReductionBudget

# callee name -> the one function allowed to call it
_SOLE_CALLERS = {"stabilizer_chain_order": "image_order", "apply_matrix": "generator_images"}


def _modules():
    package = Path(finquot.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in modules]


def _calls(tree):
    """(callee name, enclosing function name, line) for every call in the tree."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            target = node.func
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            out.append((name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


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
