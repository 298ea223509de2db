"""Traced run: one pass of the learn and sample pipeline, in process.

Runs ``cli.cmd_learn`` in this process with the public function of each
module it calls wrapped where ``cli`` looks it up, so every call is timed
from here; then times ``core.validate_dataset`` on already split rows and
the sample path on the model cmd_learn wrote. The program itself is not
modified. The estimators and the quadrature kernel are wrapped where
``scoring`` and ``estimators`` look them up, so per-pair-kind time and the
order-doubling ladder can be counted. The wrappers exist only in this
process. A wrapper whose target no longer exists is skipped, and its spans
and counts stay 0.

Run by ``run.py`` in a fresh interpreter per pass, with ``src`` on
PYTHONPATH, so import state and the quadrature-rule cache start cold as
they do for the CLI:

    python3 perfbench/traced.py DATA.csv SCHEMA.json ROWS SEED OUT.json

cmd_learn writes its report and artifacts to traced-* files in the
working directory. OUT.json receives {"spans": {name: seconds},
"counts": {name: int}, "edges": [[i, j], ...]}. Three derived spans are
included: "scoring.self" (score_all_pairs minus the estimator spans inside
it), "cli.learn" (all of cmd_learn) and "cli.self" (cmd_learn minus the
module spans inside it: the report and artifacts the CLI writes itself).
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
import time
from collections import Counter, defaultdict

from dendrofit import cli, core, dataio, estimators, kernels, model, scoring

# cli's name for each module call inside cmd_learn, and its span; both
# forest builders report as forest.build_forest
LEARN_PATH = {
    "read_schema": "dataio.read_schema",
    "read_csv_dataset": "dataio.read_csv_dataset",
    "score_all_pairs": "scoring.score_all_pairs",
    "kruskal_decisions": "forest.kruskal_decisions",
    "build_forest_suzuki": "forest.build_forest",
    "build_tree_chow_liu": "forest.build_forest",
    "fit": "model.fit",
    "log_likelihood": "model.log_likelihood",
    "description_length": "model.description_length",
}

_PAIR_KINDS = {
    estimators.DiscretePair: "discrete",
    estimators.GaussianPair: "gaussian",
    estimators.MixedPair: "mixed",
}


class Tracer:
    """Accumulates span seconds and counts by name."""

    def __init__(self) -> None:
        self.spans: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._rungs: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[name] += time.perf_counter() - start

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def collect_pair_stats(self, fn):
        def wrapped(*args):
            start = time.perf_counter()
            stats = fn(*args)
            kind = _PAIR_KINDS[type(stats)]
            self.spans[f"estimators.collect_pair_stats.{kind}"] += time.perf_counter() - start
            self.counts[f"estimators.pairs.{kind}"] += 1
            return stats

        return wrapped

    def mi_mixed(self, fn):
        def wrapped(*args):
            self._rungs = []
            value = self.call("estimators.mi_mixed", fn, *args)
            if self._rungs:
                self.counts[f"estimators.mi_mixed.confirmed_at.{self._rungs[-1]}"] += 1
            return value

        return wrapped

    def mixture_mi(self, fn):
        def wrapped(probs, means, var, nodes, weights):
            order = len(nodes)
            self._rungs.append(order)
            self.counts["kernels.mixture_mi.calls"] += 1
            self.counts["kernels.mixture_mi.node_class_evals"] += order * len(probs) ** 2
            return fn(probs, means, var, nodes, weights)

        return wrapped


@contextlib.contextmanager
def _patched(tracer: Tracer):
    """Install the wrappers, and undo them on exit."""
    plan = [
        (scoring, "collect_pair_stats", tracer.collect_pair_stats),
        (scoring, "mi_discrete", lambda fn: tracer.span("estimators.mi_discrete", fn)),
        (scoring, "mi_gaussian", lambda fn: tracer.span("estimators.mi_gaussian", fn)),
        (scoring, "mi_mixed", tracer.mi_mixed),
        (kernels, "mixture_mi", tracer.mixture_mi),
    ]
    for name, span in LEARN_PATH.items():
        plan.append((cli, name, lambda fn, span=span: tracer.span(span, fn)))
    undo = []
    try:
        for owner, name, make in plan:
            original = getattr(owner, name, None)
            if original is not None:
                undo.append((owner, name, original))
                setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def traced_pass(data: str, schema_path: str, rows: int, seed: int) -> dict:
    tracer = Tracer()
    t = tracer.call
    config = cli.RunConfig(
        command="learn", data=data, schema=schema_path, criterion="mdl", fmt="both",
        out="traced-forest", model_out="traced-model.json",
    )
    with _patched(tracer), open("traced-learn.txt", "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            code = t("cli.learn", cli.cmd_learn, config)
    if code != 0:
        raise RuntimeError(f"cmd_learn returned {code}")
    with open("traced-forest.json", encoding="utf-8") as fh:
        learned = json.load(fh)
    tracer.counts["forest.edges_accepted"] = sum(e["accepted"] for e in learned["report"])
    with open("traced-model.json", encoding="utf-8") as fh:
        fitted = model.DendroidModel.from_json_dict(json.load(fh))
    schema = fitted.schema

    with open(data, "r", encoding="utf-8", newline="") as fh:
        split_rows = list(csv.reader(fh))[1:]
    t("core.validate_dataset", core.validate_dataset, schema, split_rows)
    del split_rows

    t("core.orient_forest", core.orient_forest, fitted.forest, schema)
    drawn = t("model.sample", model.sample, fitted, rows, seed)
    text = t("dataio.render_csv", dataio.render_csv, drawn)
    tracer.counts["dataio.bytes_written"] = len(text.encode("utf-8"))

    spans = tracer.spans
    spans["scoring.self"] = spans["scoring.score_all_pairs"] - sum(
        v for k, v in spans.items() if k.startswith("estimators.")
    )
    spans["cli.self"] = spans["cli.learn"] - sum(spans[s] for s in set(LEARN_PATH.values()))
    return {"spans": dict(spans), "counts": dict(tracer.counts), "edges": learned["edges"]}


def main(argv: list[str]) -> int:
    data, schema_path, rows, seed, out = argv
    result = traced_pass(data, schema_path, int(rows), int(seed))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
