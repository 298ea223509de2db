"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload end to end at its tiny size for 1 s, with --trace 0
and with --trace 1, and prints each run's metrics by name and unit. It
fails unless every run exits 0, reports correct, and prints exactly the
metrics that BENCHMARK.json lists, each with the unit listed there; and
unless the benchmark, copied alone into an empty directory without the
program's sources, exits nonzero without printing a result. It checks the
harness in about a minute; it measures nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int):
    args = [
        sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} --trace {trace}"
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"== {label}")
    for name, m in result["metrics"].items():
        print(f"   {name} = {m['value']!r} {m['unit']}")
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: not correct: {proc.stdout.strip()[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != wanted:
        errors.append(f"{label}: printed metrics {printed} but BENCHMARK.json lists {wanted}")
    return errors


def check_without_sources(spec: dict) -> list[str]:
    """The benchmark alone, without src/, must fail without a result."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without sources: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_without_sources(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
