"""No statistic may go to BLAS or LAPACK, whose summation order depends
on the kernel picked for the CPU: outside ``oracle.py`` the package
uses no matrix product, dot product or ``linalg`` call, and no
``einsum`` that may hand its contraction to BLAS (``optimize=``)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dendrofit"
BANNED = {"dot", "matmul", "tensordot", "inner", "vdot", "linalg"}


def blas_uses(source: str, module: str) -> list[tuple[str, str, str]]:
    """(module, enclosing function, what) of each BLAS route in source."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            what = node.attr
        elif isinstance(node, ast.Name) and node.id in BANNED:
            what = node.id
        elif isinstance(node, ast.alias) and (
            node.name.split(".")[-1] in BANNED or "linalg" in node.name.split(".")
        ):
            what = node.name
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."):
            what = node.module
        elif isinstance(node, ast.Call) and any(kw.arg == "optimize" for kw in node.keywords):
            what = "einsum(optimize=...)"
        if what is not None:
            found.append((module, where, what))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_no_module_but_the_oracle_uses_blas():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "oracle.py":
            found.extend(blas_uses(path.read_text(encoding="utf-8"), path.name))
    assert not found, sorted(found)


@pytest.mark.parametrize(
    "source",
    [
        "def f(a, b):\n    return a @ b",
        "def f(a, b):\n    a @= b",
        "def f(a, b):\n    return np.dot(a, b)",
        "def f(a, b):\n    return a.dot(b)",
        "def f(a, b):\n    return np.matmul(a, b)",
        "def f(a, b):\n    return np.tensordot(a, b)",
        "def f(a, b):\n    return np.inner(a, b)",
        "def f(a, b):\n    return np.vdot(a, b)",
        "def f(a):\n    return np.linalg.eigh(a)",
        "from numpy import dot",
        "from numpy.linalg import eigh",
        "import numpy.linalg",
        "def f(a, b):\n    return np.einsum('ij,jk->ik', a, b, optimize=True)",
    ],
)
def test_each_route_is_found(source):
    assert blas_uses(source, "m.py")
