"""The library computes in exact arithmetic only: no float literal, no
float() call and no random.Random.random() draw anywhere under src/exceis,
nor in the source of the octonion kernels compiled from the structure
constants."""

import ast
from pathlib import Path

import pytest

from exceis.compalg import OctonionAlgebra, RationalScalars

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


KERNELS = {f"{flavor}-{name}": src
           for flavor, gammas in (("definite", (-1, -1, -1)), ("split", (-1, -1, 1)))
           for name, src in OctonionAlgebra(RationalScalars(), gammas, flavor)
           .kernel_sources.items()}


def test_kernels_found():
    assert {name.split("-")[1] for name in KERNELS} >= {"product", "norm"}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_no_floating_point_in_compiled_kernels(name):
    assert float_uses(ast.parse(KERNELS[name])) == []


@pytest.mark.parametrize("snippet", ["x = 0.5", "y = p ** 0.5", "z = float(n)",
                                     "if rng.random() < t: pass", "w = 1e-9"])
def test_detects_floating_point(snippet):
    assert float_uses(ast.parse(snippet))
