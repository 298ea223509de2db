"""The data is held once: the reader writes each block into columns that
double from the first block's rows, a discrete column one byte a cell,
log_likelihood goes by row blocks, and eval holds no dataset. Blank lines
and quoted newlines size no allocation."""

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dendrofit import (
    DendroidModel,
    Discrete,
    Forest,
    Gaussian,
    GaussianMarginal,
    Variable,
    VariableSchema,
    fit,
    log_likelihood,
    sample,
)
from dendrofit.cli import main
from dendrofit.dataio import read_csv_dataset, write_csv_dataset, write_schema

from conftest import dataset_from_columns
from test_model import many_class_bayes_chain

# ru_maxrss is in kilobytes on Linux (bytes on macOS), and Windows has no
# resource module; CI runs on Linux
linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss in kilobytes is Linux's"
)


def test_log_likelihood_holds_a_block_of_class_terms():
    """A 12-class Bayes vertex at 100,000 rows: log_likelihood's peak above
    its inputs is the row totals (8 bytes a row) and one block's terms.
    Ten columns make blocks of 8 * 1,638 rows, so the (12, rows) class
    terms of a block take 1.3 MB; whole columns took (12, n) terms and
    their exponentials, about 19 MB."""
    chain = many_class_bayes_chain(12)
    extra = [Variable(f"g{k}", Gaussian()) for k in range(7)]
    model = DendroidModel.build(
        schema=VariableSchema(chain.schema.variables + tuple(extra)),
        forest=Forest.from_edges(10, chain.forest.edges),
        marginals=chain.marginals + (GaussianMarginal(0.0, 1.0),) * 7,
        factors=chain.factors,
        n=1,
    )
    n = 100_000
    ds = sample(model, n, 4)
    assert len(set(ds.column(2).tolist())) == 11
    assert traced_peak(lambda: log_likelihood(model, ds)) <= n * 8 + 4 * 2**20


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), run once before so that first-call
    allocations are not counted."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a label of 1,000 newlines between two letters
TALL_LABEL = "x" + "\n" * 1000 + "y"
# two Gaussian columns and one discrete: 17 bytes a row
SHORT_SCHEMA = VariableSchema(
    (
        Variable("g0", Gaussian()),
        Variable("g1", Gaussian()),
        Variable("d", Discrete(("a", TALL_LABEL))),
    )
)
ROW_BYTES = 2 * 8 + 1


@pytest.fixture(scope="module")
def short_files(tmp_path_factory):
    """A CSV of 3 rows and 1,000,000 blank lines, one of 200 rows whose
    label holds 1,000 newlines, the schema, and a model fitted on the 3
    rows."""
    rng = np.random.default_rng(9)
    few = dataset_from_columns(SHORT_SCHEMA, *rng.standard_normal((2, 3)), np.array([0, 1, 0]))
    tall = dataset_from_columns(SHORT_SCHEMA, *rng.standard_normal((2, 200)), np.ones(200, int))
    root = tmp_path_factory.mktemp("short")
    names = ("blank-tail.csv", "quoted.csv", "schema.json", "model.json")
    paths = {name: root / name for name in names}
    write_csv_dataset(paths["blank-tail.csv"], few)
    with open(paths["blank-tail.csv"], "a", encoding="utf-8", newline="") as fh:
        fh.write("\n" * 1_000_000)
    write_csv_dataset(paths["quoted.csv"], tall)
    write_schema(paths["schema.json"], SHORT_SCHEMA)
    model = fit(few, Forest.from_edges(SHORT_SCHEMA.n_vars, []))
    paths["model.json"].write_text(json.dumps(model.to_json_dict()) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("name, rows", [("blank-tail.csv", 3), ("quoted.csv", 200)])
def test_reader_sizes_nothing_by_the_lines(short_files, name, rows):
    """read_csv_dataset's peak is the rows' own bytes and 1 MiB, whatever
    the newlines: 1,000,000 blank lines after 3 rows, or 1,000 quoted
    newlines in each of 200 rows. Columns as long as the file's newline
    count took 17 bytes a newline."""
    ds = read_csv_dataset(short_files[name], SHORT_SCHEMA)
    assert ds.n == rows
    peak = traced_peak(lambda: read_csv_dataset(short_files[name], SHORT_SCHEMA))
    assert peak <= rows * ROW_BYTES + 2**20


def test_eval_sizes_nothing_by_the_blank_lines(short_files):
    """eval on 3 rows and 1,000,000 blank lines peaks at the rows' own
    bytes and 1 MiB. Per-row totals as long as the newline count took
    8 MB."""
    argv = ["eval", "--model", short_files["model.json"], "--data", short_files["blank-tail.csv"]]

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue().startswith("log_likelihood=")

    assert traced_peak(run) <= 3 * ROW_BYTES + 2**20


ROWS, DISCRETE, GAUSSIAN = 50_000, 10, 10


@pytest.fixture(scope="module")
def tall_files(tmp_path_factory):
    """A 50,000-row CSV of 10 four-level and 10 Gaussian columns, its
    first 1,000 rows, its schema, and a model fitted on a chain through
    every column."""
    rng = np.random.default_rng(8)
    labels = ("a", "b", "c", "d")
    schema = VariableSchema(
        tuple(Variable(f"d{k}", Discrete(labels)) for k in range(DISCRETE))
        + tuple(Variable(f"g{k}", Gaussian()) for k in range(GAUSSIAN))
    )
    columns = [rng.integers(0, 4, ROWS) for _ in range(DISCRETE)]
    columns += [columns[k] + rng.standard_normal(ROWS) for k in range(GAUSSIAN)]
    ds = dataset_from_columns(schema, *columns)
    # d_k - g_k and g_k - d_k+1: Gaussian parents of discrete children too
    edges = [(k, DISCRETE + k) for k in range(GAUSSIAN)]
    edges += [(k + 1, DISCRETE + k) for k in range(DISCRETE - 1)]
    model = fit(ds, Forest.from_edges(schema.n_vars, edges))
    root = tmp_path_factory.mktemp("tall")
    names = ("data.csv", "prefix.csv", "schema.json", "model.json")
    paths = {name: root / name for name in names}
    write_csv_dataset(paths["data.csv"], ds)
    with open(paths["data.csv"], encoding="utf-8", newline="") as fh:
        head = [fh.readline() for _ in range(1 + 1000)]
    paths["prefix.csv"].write_text("".join(head), encoding="utf-8", newline="")
    write_schema(paths["schema.json"], schema)
    paths["model.json"].write_text(json.dumps(model.to_json_dict()) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


# starts its arguments as a process: a process's ru_maxrss starts at the
# peak of the process that started it, so this small one is between
# the test process and the measured child
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def rss_growth(code: str, *args: str) -> list[int]:
    """The numbers a child prints after running code, in which GROWTH()
    is the rise of the child's ru_maxrss in bytes since START, which code
    sets where its measurement starts."""
    prelude = (
        "import resource, sys\n"
        "def GROWTH():\n"
        "    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - START) * 1024\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", prelude + code, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return [int(v) for v in run.stdout.split()]


@linux_only
def test_reader_holds_the_columns_once(tall_files):
    """read_csv_dataset raises a child's peak RSS by at most 1.3 times the
    dataset's bytes and 2 MB: each block is written straight into columns
    of the file's length, a discrete column one byte a cell. Joining
    per-block arrays held about two copies. The measurement starts after
    a read of the first 1,000 rows, as in test_eval_holds_no_dataset."""
    growth, nbytes = rss_growth(
        "from dendrofit import dataio\n"
        "schema = dataio.read_schema(sys.argv[3])\n"
        "dataio.read_csv_dataset(sys.argv[2], schema)\n"
        "START = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "ds = dataio.read_csv_dataset(sys.argv[1], schema)\n"
        "print(GROWTH(), sum(column.nbytes for column in ds.columns))\n",
        tall_files["data.csv"],
        tall_files["prefix.csv"],
        tall_files["schema.json"],
    )
    assert nbytes == ROWS * (DISCRETE + GAUSSIAN * 8)
    assert growth <= 1.3 * nbytes + 2 * 2**20


@linux_only
def test_eval_holds_no_dataset(tall_files):
    """eval raises a child's peak RSS by at most 8 bytes a row and 4 MB:
    the reader's blocks go straight to the likelihood. Reading the whole
    dataset first held 8 bytes a cell, and more. The measurement starts
    after an eval of the first 1,000 rows, so that the heap that the
    import and the first call leave (which depends on whether the
    bytecode was cached) is the same in every run."""
    (growth,) = rss_growth(
        "import contextlib, io\n"
        "from dendrofit.cli import main\n"
        "def run(data):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(['eval', '--model', sys.argv[1], '--data', data]) == 0\n"
        "    assert out.getvalue().startswith('log_likelihood=-')\n"
        "run(sys.argv[3])\n"
        "START = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "run(sys.argv[2])\n"
        "print(GROWTH())\n",
        tall_files["model.json"],
        tall_files["data.csv"],
        tall_files["prefix.csv"],
    )
    assert growth <= ROWS * 8 + 4 * 2**20
