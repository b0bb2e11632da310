"""No check in the package may be an assert: `python -O` strips them."""

from __future__ import annotations

import ast
from pathlib import Path

import finquot


def test_package_has_no_assert_statements():
    package = Path(finquot.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
