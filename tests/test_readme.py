"""The README's code must run as written."""

import re
from pathlib import Path

from dendrofit.estimators import _rung

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert snippet is not None, "README has no Library code block"
    scope = {}
    exec(snippet.group(1), scope)
    assert scope["synthetic"].n == 1000


def test_kept_node_counts_match_the_rule():
    text = " ".join(README.read_text(encoding="utf-8").split())
    claim = re.search(r"[Oo]rders ([\d, ]+ and \d+) keep ([\d, ]+ and \d+) nodes", text)
    assert claim is not None, "README states no kept-node counts"
    orders, kept = ([int(v) for v in re.findall(r"\d+", part)] for part in claim.groups())
    assert len(orders) == len(kept) == 5
    # the rungs of a ladder from the first order the README names
    rungs = [_rung(order, order == orders[0]) for order in orders]
    for k, count in enumerate(kept):
        assert sum(len(nodes) for nodes, _ in rungs[: k + 1]) == count, orders[k]
