"""Each committed benchmark record (``BENCH_*.json``) states a claim that its
own pairs bear out: a workload and an end-to-end metric that
``BENCHMARK.json`` defines, the medians and the parent's interquartile
range of that workload's runs, and the number of pairs in which the
change is better in the metric's direction."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# a median is kept to 4 decimals; one that falls halfway between two
# 4-decimal values (the mean of an even count's middle pair) may round
# either way
DECIMALS_4 = 5e-5 + 1e-9


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_claim_matches_its_pairs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert claim["metric"] in metrics
    better = metrics[claim["metric"]]["better"]
    pairs = record["workloads"][claim["workload"]]["pairs"]
    parent = [pair["parent"][claim["metric"]] for pair in pairs]
    change = [pair["change"][claim["metric"]] for pair in pairs]
    assert claim["pairs"] == len(pairs)
    assert claim["parent_median"] == pytest.approx(statistics.median(parent), abs=DECIMALS_4)
    assert claim["change_median"] == pytest.approx(statistics.median(change), abs=DECIMALS_4)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    assert claim["change_better_pairs"] == wins
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert claim["parent_iqr"] == pytest.approx(q3 - q1, abs=5e-4)
