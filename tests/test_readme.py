"""The README's code must run as written."""

import re
from pathlib import Path

from dendrofit import kernels
from dendrofit.estimators import _hermite_rule

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
    claim = re.search(r"Orders ([\d, ]+ and \d+) keep ([\d, ]+ and \d+) nodes", text)
    assert claim is not None, "README states no kept-node counts"
    orders, kept = ([int(v) for v in re.findall(r"\d+", part)] for part in claim.groups())
    assert len(orders) == len(kept) == 5
    for order, count in zip(orders, kept):
        weights = _hermite_rule(order)[1]
        assert (weights > kernels._NODE_WEIGHT_FLOOR).sum() == count, order
