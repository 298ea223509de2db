"""The sufficient statistics are gathered in one place: outside
``oracle.py`` each statistics kernel is called from one function of the
package, the same one for all of them, so the pair table, ``fit`` and
``collect_pair_stats`` cannot drift apart."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dendrofit"
KERNELS = {"scaled_rows", "covariances", "class_members", "class_stats_rows", "joint_counts"}


def kernel_calls(source: str, module: str) -> set[tuple[str, str, str]]:
    """(kernel, module, enclosing function) of each call of a statistics
    kernel in source, by attribute (``kernels.joint_counts(...)``) or by
    name (``joint_counts(...)``)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in KERNELS:
                found.add((name, module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_every_statistics_kernel_has_one_calling_function():
    calls = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "oracle.py":
            calls |= kernel_calls(path.read_text(encoding="utf-8"), path.name)
    callers = {k: {(module, where) for name, module, where in calls if name == k} for k in KERNELS}
    assert all(len(where) == 1 for where in callers.values()), callers
    assert len(set.union(*callers.values())) == 1, callers


@pytest.mark.parametrize(
    "source, caller",
    [
        ("def f(x):\n    return kernels.joint_counts(x, x, 2, 2)", "f"),
        ("def f(x):\n    return joint_counts(x, x, 2, 2)", "f"),
        ("def f(x):\n    def g():\n        return kernels.scaled_rows([x], 1)\n    return g", "g"),
        ("h = lambda c: kernels.covariances(c, [0], [0])", "<lambda>"),
        ("stats = kernels.class_stats_rows(s, y, 2)", "<module>"),
        ("def f(y):\n    return class_members(y, 2)", "f"),
    ],
)
def test_each_call_is_found(source, caller):
    assert [where for _, _, where in kernel_calls(source, "m.py")] == [caller]
