"""The python block under "Library quick tour" in README.md runs as shown
and gives the values its comments state, and every name the package
exports resolves."""

import ast
import math
import pathlib

import pytest

import rzero

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour():
    source = quick_tour()
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["residual_table([100.0])[0].count"] == 13
    assert values["zeta_from_r(2.0)"] == pytest.approx(math.pi ** 2 / 6.0,
                                                       rel=1e-12)
    assert namespace["clusters"] == []
    assert len(namespace["zeros"]) == 6


def test_public_names_resolve():
    assert len(set(rzero.__all__)) == len(rzero.__all__)
    assert [name for name in rzero.__all__ if not hasattr(rzero, name)] == []
