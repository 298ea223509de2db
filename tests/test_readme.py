"""The README's code must run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert snippet is not None, "README has no Library code block"
    scope = {}
    exec(snippet.group(1), scope)
    assert scope["synthetic"].n == 1000
