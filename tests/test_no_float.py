"""The library computes in exact arithmetic only: no float literal, no
float() call and no random.Random.random() draw anywhere under src/exceis."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "exceis").glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "float":
                found.append(f"line {node.lineno}: float() call")
            elif isinstance(fn, ast.Attribute) and fn.attr == "random" and not node.args:
                found.append(f"line {node.lineno}: .random() call")
    return found


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", ["x = 0.5", "y = p ** 0.5", "z = float(n)",
                                     "if rng.random() < t: pass", "w = 1e-9"])
def test_detects_floating_point(snippet):
    assert float_uses(ast.parse(snippet))
