"""End-to-end benchmark of the dendrofit pipeline: learn, then eval, then
sample, on the workloads described in ``workloads.py``.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program runs from ``src``
with no install step. All load comes from this one process, which starts
one child at a time and waits for it (a closed loop with one client).

``--trace 0`` times the real CLI (``python3 -m dendrofit ...``) in child
processes and reports the end-to-end metrics as medians over the rounds
that fit in ``--seconds``. The speed a shared machine gives one process
drifts by 20-40% over tens of seconds, so each round's wall times are
scaled to a reference speed, measured by ``calibrate.py`` between rounds
(see ``timed_run``); the raw wall times are printed with the samples.
``--trace 1`` runs ``traced.py`` passes, which run ``cmd_learn`` and the
sample path in process and time each module's public function from the
benchmark's own files, and reports the per-layer metrics as medians over
the passes; their counts must repeat exactly from pass to pass.

Every operation's output is checked (see ``Pipeline``); an operation that
fails a check counts in ``failed``. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
earlier lines record the machine and the raw samples.

This process imports only the standard library, because a child's peak
RSS as reported by ``wait4`` includes the peak of the process that
started it; numpy and dendrofit are used only in children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread in every child: the children run one at a time on
# a small shared machine, and extra threads only add contention.
THREAD_LIMITS = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"), "1"
)
# end-to-end timings are in seconds of a machine on which calibrate.py takes
# this long, its typical time on the 2-core machine the benchmark was tuned on
REFERENCE_S = 0.35
# within a round each CLI operation repeats until its runs add up to this
# long, so that short operations get as many samples as long ones
OP_FLOOR_S = 0.6
# set-up is generate + write + one cold learn, repeated; setup_s is the median
SETUP_REPEATS = 3
# `python -c "import dendrofit.cli"` runs per traced round, for cli.import.s
IMPORTS_PER_ROUND = 3
# a child still running after this is killed, and its operation fails
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "learn_s": "s",
    "eval_s": "s",
    "sample_s": "s",
    "learn_rss_mb": "MB",
    "sample_rss_mb": "MB",
    "setup_s": "s",
    "edge_recall": "ratio",
    "success_rate": "ratio",
}

PER_LAYER = {
    "dataio.read_csv_dataset.s": "s",
    "core.validate_dataset.s": "s",
    "dataio.render_csv.s": "s",
    "dataio.bytes_written": "bytes",
    "model.sample.s": "s",
    "core.orient_forest.s": "s",
    "scoring.score_all_pairs.s": "s",
    "scoring.pairs_per_s": "1/s",
    # score_all_pairs minus the estimator spans inside it
    "scoring.self.s": "s",
    "estimators.collect_pair_stats.discrete.s": "s",
    "estimators.collect_pair_stats.gaussian.s": "s",
    "estimators.collect_pair_stats.mixed.s": "s",
    "estimators.mi_discrete.s": "s",
    "estimators.mi_gaussian.s": "s",
    "estimators.pairs.discrete": "count",
    "estimators.pairs.gaussian": "count",
    "estimators.pairs.mixed": "count",
    "estimators.mi_mixed.s": "s",
    "kernels.mixture_mi.calls": "count",
    # sum over calls of quadrature order x classes^2
    "kernels.mixture_mi.node_class_evals": "count",
    "estimators.mi_mixed.confirmed_at.128": "count",
    "estimators.mi_mixed.confirmed_at.256": "count",
    "estimators.mi_mixed.confirmed_at.512": "count",
    "estimators.mi_mixed.confirmed_at.1024": "count",
    # confirmed mixed pairs / mixture_mi calls (ladder rungs evaluated)
    "estimators.mi_mixed.rung_yield": "ratio",
    "forest.kruskal_decisions.s": "s",
    "forest.build_forest.s": "s",
    "forest.edges_accepted": "count",
    "model.fit.s": "s",
    "model.log_likelihood.s": "s",
    "model.description_length.s": "s",
    # wall time of `python3 -c "import dendrofit.cli"`
    "cli.import.s": "s",
    # the traced cmd_learn minus the module spans inside it: report printing
    # and artifact writing
    "cli.self.s": "s",
    # (cli.import.s + traced cmd_learn) / CLI learn_s
    "trace.coverage": "ratio",
}

# counts a traced pass reports; they must be equal in every pass
TRACED_COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]
# spans a traced pass reports (cli.import is timed on children instead)
TRACED_SPANS = [
    name[: -len(".s")] for name in PER_LAYER if name.endswith(".s") and name != "cli.import.s"
] + ["cli.learn"]
CONFIRM_ORDERS = (128, 256, 512, 1024)


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


class Bench:
    """One benchmark run: its working directory, the children's
    environment and the tally of attempted and failed operations."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, **THREAD_LIMITS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def path(self, name: str) -> Path:
        return self.work / name

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def child(self, *args: str, stdout: str) -> Child:
        """Run ``python3 ARGS`` to completion. Its peak RSS is its own
        rusage from wait4, not RUSAGE_CHILDREN, which would be the maximum
        over every child reaped so far."""
        with open(self.path(stdout), "wb") as out, open(self.path("stderr.txt"), "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=self.work
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0)

    def cli(self, *args: str, stdout: str) -> Child:
        return self.child("-m", "dendrofit", *args, stdout=stdout)

    def script(self, name: str, *args: str, stdout: str) -> Child:
        return self.child(str(HERE / name), *args, stdout=stdout)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        if not p.exists():
            h.update(b"<missing>")
            continue
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def _stdout_value(path: Path, key: str):
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1 :]
    return None


class Pipeline:
    """A workload's inputs and the CLI operations on them, each checked:

    - every child must exit 0;
    - set-up must write byte-identical inputs each time;
    - every learn must write byte-identical forest JSON, DOT and model
      JSON, and print the same description_length;
    - eval must print learn's description_length exactly;
    - every sample must be byte-identical, and the first must read back
      through dendrofit's CSV reader with exactly the requested rows;
    - once per timed run, every pair's I_n in the forest JSON must match
      an independent recomputation from the data (``check_scores``).
    """

    def __init__(self, bench: Bench, name: str, seed: int, size: str) -> None:
        self.bench = bench
        self.name = name
        self.seed = seed
        self.size = size
        self.reference: dict = {}
        self.input_digest = None
        self.artifacts = [bench.path(p) for p in ("forest.json", "forest.dot", "model.json")]
        self.learn_digest = None
        self.description_length = None
        self.sample_digest = None

    @property
    def rows(self) -> int:
        return self.reference["rows"]

    def write_inputs(self) -> None:
        b = self.bench
        run = b.script("generate.py", self.name, str(self.seed), self.size, ".", stdout="gen.txt")
        digest = _digest(b.path("schema.json"), b.path("data.csv"))
        self.input_digest = self.input_digest or digest
        b.check(
            run.code == 0 and digest == self.input_digest,
            f"generate: exit {run.code} or inputs differ between set-ups",
        )
        self.reference = json.loads(b.path("reference.json").read_text(encoding="utf-8"))

    def learn(self) -> Child:
        b = self.bench
        run = b.cli(
            "learn", "--data", "data.csv", "--schema", "schema.json", "--criterion", "mdl",
            "--format", "both", "--out", "forest", "--model-out", "model.json",
            stdout="learn.txt",
        )
        digest = _digest(*self.artifacts)
        dl = _stdout_value(b.path("learn.txt"), "description_length")
        if self.learn_digest is None and run.code == 0:
            self.learn_digest, self.description_length = digest, dl
        b.check(
            run.code == 0 and digest == self.learn_digest and dl == self.description_length,
            f"learn: exit {run.code}, or artifacts or description_length differ between runs",
        )
        return run

    def eval(self) -> Child:
        b = self.bench
        run = b.cli(
            "eval", "--model", "model.json", "--data", "data.csv", "--criterion", "mdl",
            stdout="eval.txt",
        )
        dl = _stdout_value(b.path("eval.txt"), "description_length")
        b.check(
            run.code == 0 and dl is not None and dl == self.description_length,
            f"eval: exit {run.code}, description_length {dl} vs learn's {self.description_length}",
        )
        return run

    def sample(self) -> Child:
        b = self.bench
        run = b.cli(
            "sample", "--model", "model.json", "--count", str(self.rows),
            "--seed", str(self.seed), "--out", "sample.csv",
            stdout="sample.txt",
        )
        digest = _digest(b.path("sample.csv"))
        if self.sample_digest is None and run.code == 0 and self.reads_back():
            self.sample_digest = digest
        b.check(
            run.code == 0 and digest == self.sample_digest,
            f"sample: exit {run.code}, or output does not read back or differs between runs",
        )
        return run

    def reads_back(self) -> bool:
        run = self.bench.script(
            "probe.py", "rows", "sample.csv", "schema.json", stdout="rows.txt"
        )
        return run.code == 0 and self.bench.path("rows.txt").read_text().strip() == str(self.rows)

    def check_scores(self) -> dict:
        """Every pair's I_n in learn's forest JSON must match probe.py's
        recomputation from the data, which does not use dendrofit."""
        run = self.bench.script(
            "probe.py", "scores", "data.csv", "schema.json", "forest.json", stdout="scores.txt"
        )
        found = json.loads(self.bench.path("scores.txt").read_text()) if run.code == 0 else {}
        n = self.reference["columns"]
        self.bench.check(
            found.get("pairs") == n * (n - 1) // 2 and found.get("bad") == 0,
            f"scores: exit {run.code}, or pair I_n off the recomputed values: {found}",
        )
        return found

    def learned_edges(self) -> list:
        path = self.bench.path("forest.json")
        if not path.exists():
            return []
        return json.loads(path.read_text(encoding="utf-8"))["edges"]

    def edge_recall(self) -> float:
        """Share of the planted edges the learned forest contains."""
        learned = {tuple(e) for e in self.learned_edges()}
        planted = {tuple(e) for e in self.reference["edges"]}
        return len(learned & planted) / len(planted)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rounds(seconds: float, minimum: int):
    """Yield round numbers while the next round is expected to end within
    ``seconds`` of the first, and at least ``minimum`` times."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def calibrate(bench: Bench) -> float:
    """Wall time of calibrate.py, run now."""
    run = bench.script("calibrate.py", stdout="calibrate.txt")
    if run.code != 0:
        raise RuntimeError(f"calibrate.py exited {run.code}")
    return run.wall_s


def _repeat(op) -> list[Child]:
    """Run ``op`` until its runs add up to OP_FLOOR_S, at least once."""
    runs = [op()]
    while sum(r.wall_s for r in runs) < OP_FLOOR_S:
        runs.append(op())
    return runs


def timed_run(pipe: Pipeline, seconds: float) -> tuple[dict, dict]:
    """Set-up repeats, then rounds of learn, eval and sample for ``seconds``.

    calibrate.py runs before the first set-up and after every set-up and
    round. The wall times of a set-up or round are scaled by REFERENCE_S
    over the median of the six calibrations nearest to it, three before
    and three after: the median ignores a calibration that was itself
    slowed, and six of them span only about 20 s, so the scale still
    follows the machine's drift. Raw wall times and calibrations are kept
    in the samples."""
    b = pipe.bench
    ops = {"learn_s": pipe.learn, "eval_s": pipe.eval, "sample_s": pipe.sample}
    rss_of = {"learn_s": "learn_rss_mb", "sample_s": "sample_rss_mb"}
    walls: list[tuple[str, float, int]] = []  # (metric, wall time, calibrations before it)
    rss: dict[str, list[float]] = {k: [] for k in rss_of.values()}

    calibrations = [calibrate(b)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pipe.write_inputs()
        pipe.learn()
        walls.append(("setup_s", time.perf_counter() - start, len(calibrations)))
        calibrations.append(calibrate(b))
    for _ in _rounds(seconds, minimum=1):
        for name, op in ops.items():
            for run in _repeat(op):
                walls.append((name, run.wall_s, len(calibrations)))
                if name in rss_of:
                    rss[rss_of[name]].append(run.rss_mb)
        calibrations.append(calibrate(b))
    scores = pipe.check_scores()

    names = ("setup_s", *ops)
    scale = {k: REFERENCE_S / _median(calibrations[max(0, k - 3) : k + 3]) for _, _, k in walls}
    metrics = {k: _median(v) for k, v in rss.items()}
    for name in names:
        metrics[name] = _median([w * scale[k] for n, w, k in walls if n == name])
    metrics["edge_recall"] = pipe.edge_recall()
    metrics["success_rate"] = (b.attempted - b.failed) / b.attempted
    raw = {name: [w for n, w, _ in walls if n == name] for name in names}
    return metrics, {"wall_s": raw, "calibrate_s": calibrations, **rss, "scores": scores}


def traced_run(pipe: Pipeline, seconds: float) -> tuple[dict, dict]:
    """Rounds of one traced pass, one CLI learn and a few bare imports,
    for ``seconds`` and at least twice, so the counts can be compared."""
    b = pipe.bench
    pipe.write_inputs()
    passes: list[dict] = []
    learns: list[float] = []
    imports: list[float] = []
    for _ in _rounds(seconds, minimum=2):
        run = b.script(
            "traced.py", "data.csv", "schema.json", str(pipe.rows), str(pipe.seed), "trace.json",
            stdout="trace.txt",
        )
        if b.check(run.code == 0, f"traced pass: exit {run.code}"):
            passes.append(json.loads(b.path("trace.json").read_text(encoding="utf-8")))
        learns.append(pipe.learn().wall_s)
        for _ in range(IMPORTS_PER_ROUND):
            run = b.child("-c", "import dendrofit.cli", stdout="import.txt")
            b.check(run.code == 0, f"import: exit {run.code}")
            imports.append(run.wall_s)

    cli_edges = pipe.learned_edges()
    counts = [{k: p["counts"].get(k, 0) for k in TRACED_COUNTS} for p in passes]
    for p, c in zip(passes, counts):
        b.check(c == counts[0], f"traced counts differ between passes: {c} vs {counts[0]}")
        b.check(p["edges"] == cli_edges, "traced forest differs from the CLI's")

    metrics = {
        f"{s}.s": _median([p["spans"].get(s, 0.0) for p in passes]) for s in TRACED_SPANS
    }
    traced_learn = metrics.pop("cli.learn.s")
    metrics.update(counts[0] if counts else dict.fromkeys(TRACED_COUNTS, 0))
    pairs = sum(metrics[f"estimators.pairs.{k}"] for k in ("discrete", "gaussian", "mixed"))
    score_s = metrics["scoring.score_all_pairs.s"]
    metrics["scoring.pairs_per_s"] = pairs / score_s if score_s else 0.0
    rungs = metrics["kernels.mixture_mi.calls"]
    confirmed = sum(metrics[f"estimators.mi_mixed.confirmed_at.{o}"] for o in CONFIRM_ORDERS)
    metrics["estimators.mi_mixed.rung_yield"] = confirmed / rungs if rungs else 0.0
    learn_s, import_s = _median(learns), _median(imports)
    metrics["cli.import.s"] = import_s
    metrics["trace.coverage"] = (import_s + traced_learn) / learn_s
    return metrics, {"learn_s": learns, "cli.import.s": imports, "traced_passes": len(passes)}


def machine_facts(bench: Bench) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_limits": THREAD_LIMITS,
        "load": "closed loop, one client, one CLI child at a time",
    }
    run = bench.script("probe.py", "facts", stdout="facts.txt")
    if run.code == 0:
        facts.update(json.loads(bench.path("facts.txt").read_text(encoding="utf-8")))
    facts["commit"] = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            facts["commit"] = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for selftest.py only"
    )
    args = parser.parse_args(argv)

    if not (SRC / "dendrofit" / "cli.py").is_file():
        print(f"error: no dendrofit sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        bench = Bench(work)
        pipe = Pipeline(bench, args.workload, args.seed, args.size)
        run = traced_run if args.trace else timed_run
        metrics, samples = run(pipe, args.seconds)
        facts = machine_facts(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    facts["bench_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"machine": facts}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": samples}))
    for problem in bench.problems:
        print(f"failed: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
