"""Every text file the package opens names its encoding: the default
one depends on the locale, so a file read or written without
``encoding=`` could differ between machines. Each text-mode ``open``
(the builtin, ``io.open`` or ``Path.open``), ``Path.read_text`` and
``Path.write_text`` in ``src/dendrofit`` passes ``encoding=``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dendrofit"


def _mode(call: ast.Call, position: int):
    """The mode argument of an open call, at its position or by keyword,
    or None when the call gives none."""
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def _opens_text(call: ast.Call) -> bool:
    """Whether call is an open that may open a file in text mode: its mode
    is absent, or is not a constant string holding "b"."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call, 1)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return False  # os.open takes flags and gives a descriptor
        io_open = isinstance(func.value, ast.Name) and func.value.id == "io"
        mode = _mode(call, 1 if io_open else 0)
    else:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value)


def default_encodings(source: str, module: str) -> list[tuple[str, int, str]]:
    """(module, line, call) of each text-file call in source that passes
    no ``encoding=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        text_file = _opens_text(node) or (
            isinstance(node.func, ast.Attribute) and node.func.attr in ("read_text", "write_text")
        )
        if text_file and not any(kw.arg == "encoding" for kw in node.keywords):
            found.append((module, node.lineno, ast.unparse(node.func)))
    return found


def test_every_text_file_names_its_encoding():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found.extend(default_encodings(path.read_text(encoding="utf-8"), path.name))
    assert not found, found


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        "open(p, 'w')",
        "open(p, mode='r', newline='')",
        "open(p, m)",
        "io.open(p, 'r')",
        "Path(p).open('w')",
        "Path(p).open()",
        "Path(p).read_text()",
        "Path(p).read_text('utf-8')",
        "p.write_text(text)",
    ],
)
def test_each_default_encoding_is_found(source):
    assert default_encodings(source, "m.py")


@pytest.mark.parametrize(
    "source",
    [
        "open(p, encoding='utf-8')",
        "open(p, 'rb')",
        "open(p, mode='wb')",
        "io.open(p, 'ab')",
        "Path(p).open('rb')",
        "os.open(p, os.O_RDONLY)",
        "Path(p).read_bytes()",
        "p.write_text(text, encoding='utf-8')",
    ],
)
def test_binary_files_and_named_encodings_pass(source):
    assert not default_encodings(source, "m.py")
