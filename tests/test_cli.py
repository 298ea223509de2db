import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dendrofit
from dendrofit import cli, dataio, errors
from dendrofit import (
    Criterion,
    DendroidModel,
    Discrete,
    Forest,
    Gaussian,
    GaussianEdgeFactor,
    GaussianMarginal,
    Variable,
    VariableSchema,
    collect_pair_stats,
    fit,
    mi_gaussian,
)
from dendrofit.cli import RunConfig, main
from dendrofit.dataio import (
    BLOCK_CELLS,
    read_csv_dataset,
    read_schema,
    render_csv,
    write_csv_dataset,
    write_schema,
)
from dendrofit.dataio import forest_dot
from dendrofit.forest import REASONS, accepted_forest
from dendrofit.model import description_length, log_likelihood, sample
from dendrofit import oracle
from dendrofit.oracle import render_csv_rows
from dendrofit.scoring import PairScores, score_all_pairs

from conftest import (
    dataset_from_columns,
    discrete_schema,
    dispatch_envs,
    every_kind_model,
    mixed_schema,
    random_mixed_case,
)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def star_dataset(n=1500, seed=0):
    """Four binary columns: v1..v3 are increasingly noisy copies of v0."""
    rng = np.random.default_rng(seed)
    schema = discrete_schema(2, 2, 2, 2)
    v0 = rng.integers(0, 2, n)
    flip = lambda p: (v0 ^ (rng.random(n) < p)).astype(np.int64)
    return dataset_from_columns(schema, v0, flip(0.05), flip(0.15), flip(0.25))


def learned_artifacts(out, data, schema):
    """Bytes of the forest JSON, DOT and model JSON that `learn` writes."""
    rc = main(["learn", "--data", data, "--schema", schema, "--criterion", "mdl",
               "--format", "both", "--out", str(out), "--model-out", f"{out}.model.json"])
    assert rc == 0
    return [Path(f"{out}{ext}").read_bytes() for ext in (".json", ".dot", ".model.json")]


# 32 rows of two binary columns (a, b) and two Gaussian ones (x, z), in
# which every class holds 16 rows and every Gaussian cell is a multiple of
# 1/8 below 4, so every count, mean, variance and covariance of ``fit`` is
# an exact sum, whatever order BLAS adds it in. The ml forest is a - b,
# a - x, x - z: one discrete, one mixed and one Gaussian factor.
PINNED_FIT_X = [
    0.25, -0.5, -0.375, -2.5, 1.75, 1.125, -0.375, 0.75, 0.25, -0.5, 1.0, -0.25, -0.375, -0.75,
    0.5, -0.125, 2.5, 1.375, 2.125, 1.125, 2.875, 2.25, 2.375, 2.375, 1.0, 2.75, 4.0, 0.375,
    0.25, 0.5, 2.875, 2.125,
]
PINNED_FIT_Z = [
    0.75, -0.125, -0.25, -2.375, 1.625, 1.5, -1.0, 0.5, 0.375, 0.375, 0.625, -0.75, -0.625,
    -0.25, 0.375, 0.5, 1.625, 2.0, 2.625, 0.375, 3.0, 2.875, 2.375, 2.875, 2.125, 2.875, 3.875,
    0.0, 0.625, 0.375, 2.75, 2.125,
]
# sha256 of the model JSON and the DOT file that learn writes for them
PINNED_FIT_SHA256 = {
    "model.json": "455633c681b066e829bc33c8ddc534f087f5af42f9b8c055c15ec36522deca30",
    "forest.dot": "1d8ab0bbecaca3f02d913dbfa443ff544d4dd45dfe6282f679f09c05cdd43ac4",
}


@pytest.fixture
def star_files(tmp_path):
    ds = star_dataset()
    data = tmp_path / "star.csv"
    schema = tmp_path / "star.schema.json"
    write_csv_dataset(data, ds)
    write_schema(schema, ds.schema)
    return str(data), str(schema), ds


class TestLearn:
    def test_star_structure_and_artifacts(self, tmp_path, star_files, capsys):
        data, schema, _ = star_files
        out = tmp_path / "learned"
        rc = main(
            ["learn", "--data", data, "--schema", schema, "--format", "both",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "learned.json").read_text())
        assert doc["format"] == "dendrofit-forest"
        assert doc["edges"] == [[0, 1], [0, 2], [0, 3]]
        assert len(doc["report"]) == 6
        rejected = [r for r in doc["report"] if not r["accepted"]]
        assert all(r["reason"] == "loop" for r in rejected)
        dot = (tmp_path / "learned.dot").read_text()
        assert '"v0" -- "v1"' in dot and "I=" in dot and "J=" in dot
        assert '"v1" -- "v2"' not in dot
        console = capsys.readouterr().out
        assert "description_length=" in console and "accepted" in console

    def test_empty_forest_prints_a_real_total(self, tmp_path, capsys):
        """No edge is accepted: total_score is the float 0.0, as the sum of
        the accepted scores is for any other forest, not the int 0."""
        data = write_text(tmp_path / "d.csv", "a,b\nx,x\ny,x\nx,y\ny,y\n")
        schema = tmp_path / "s.json"
        write_schema(schema, VariableSchema(tuple(
            Variable(name, Discrete(("x", "y"))) for name in "ab"
        )))
        rc = main(["learn", "--data", data, "--schema", str(schema), "--criterion", "mdl"])
        assert rc == 0
        assert "\nedges_selected=0 total_score=0.0\n" in capsys.readouterr().out

    def test_fitted_model_bytes_are_pinned(self, tmp_path):
        a = [0] * 16 + [1] * 16
        b = [1 - v if k % 16 < 4 else v for k, v in enumerate(a)]
        schema = tmp_path / "pinned.schema.json"
        schema.write_text(json.dumps([
            {"name": "a", "kind": "discrete", "labels": ["p", "q"]},
            {"name": "b", "kind": "discrete", "labels": ["p", "q"]},
            {"name": "x", "kind": "gaussian"},
            {"name": "z", "kind": "gaussian"},
        ]), encoding="utf-8")
        rows = zip(a, b, PINNED_FIT_X, PINNED_FIT_Z)
        lines = ["a,b,x,z"] + [f"{'pq'[u]},{'pq'[v]},{x!r},{z!r}" for u, v, x, z in rows]
        data = write_text(tmp_path / "pinned.csv", "\n".join(lines) + "\n")
        rc = main(["learn", "--data", data, "--schema", str(schema), "--criterion", "ml",
                   "--format", "both", "--out", str(tmp_path / "forest"),
                   "--model-out", str(tmp_path / "model.json")])
        assert rc == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_FIT_SHA256
        }
        assert digests == PINNED_FIT_SHA256

    def test_byte_identical_artifacts_across_runs(self, tmp_path, star_files):
        data, schema, _ = star_files
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            model_out = tmp_path / f"model_{tag}.json"
            rc = main(
                ["learn", "--data", data, "--schema", schema, "--criterion", "mdl",
                 "--format", "both", "--out", str(out), "--model-out", str(model_out)]
            )
            assert rc == 0
            blobs.append(
                (
                    (tmp_path / f"run_{tag}.json").read_bytes(),
                    (tmp_path / f"run_{tag}.dot").read_bytes(),
                    model_out.read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("data_set", ["star", "every-kind"])
    def test_byte_identical_artifacts_across_hash_seeds(self, tmp_path, star_files, data_set):
        # two processes with different hash seeds: no dict or set keyed by
        # vertex, pair or name may order what learn prints or writes
        data, schema, _ = star_files
        if data_set == "every-kind":
            model = every_kind_model()
            data, schema = str(tmp_path / "kinds.csv"), str(tmp_path / "kinds.schema.json")
            write_csv_dataset(data, sample(model, 400, seed=1))
            write_schema(schema, model.schema)
        package = str(Path(dendrofit.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            run = subprocess.run(
                [sys.executable, "-m", "dendrofit", "learn", "--data", data, "--schema", schema,
                 "--criterion", "mdl", "--format", "both", "--out", str(out),
                 "--model-out", f"{out}.model.json"],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
                capture_output=True,
                timeout=300,
            )
            assert run.returncode == 0, run.stderr
            outputs.append([run.stdout] + [
                Path(f"{out}{ext}").read_bytes() for ext in (".json", ".dot", ".model.json")
            ])
        assert outputs[0] == outputs[1]

    def test_byte_identical_artifacts_across_blas_threads_and_kernels(self, tmp_path):
        # 12,500 rows of random reals, whose sums are not exact: OpenBLAS
        # splits a dot product this long between threads, and each core
        # type's kernel adds in its own order, so a statistic that went
        # to BLAS would change its last bits with the machine
        rng = np.random.default_rng(12)
        n = 12_500
        k = rng.integers(0, 3, n)
        x = rng.standard_normal(n) + k
        y = x + rng.standard_normal(n)
        ds = dataset_from_columns(mixed_schema("Dggdg"), k, x, y, k % 2, y - x)
        data, schema = str(tmp_path / "d.csv"), str(tmp_path / "d.schema.json")
        write_csv_dataset(data, ds)
        write_schema(schema, ds.schema)
        package = str(Path(dendrofit.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        base = {key: value for key, value in os.environ.items() if not key.startswith("OPENBLAS")}
        blas_settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
        if platform.machine().lower() in ("x86_64", "amd64"):
            blas_settings += [
                {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": core}
                for core in ("Haswell", "Sandybridge", "Nehalem")
            ]
        outputs = []
        for run_index, blas in enumerate(blas_settings):
            out = tmp_path / f"blas{run_index}"
            run = subprocess.run(
                [sys.executable, "-m", "dendrofit", "learn", "--data", data, "--schema", schema,
                 "--criterion", "mdl", "--format", "both", "--out", str(out),
                 "--model-out", f"{out}.model.json"],
                env={**base, "PYTHONPATH": path, **blas},
                capture_output=True,
                timeout=300,
            )
            assert run.returncode == 0, run.stderr
            outputs.append([run.stdout] + [
                Path(f"{out}{ext}").read_bytes() for ext in (".json", ".dot", ".model.json")
            ])
        for blas, output in zip(blas_settings[1:], outputs[1:]):
            assert output == outputs[0], blas

    def test_mdl_on_independent_columns_gives_empty_forest(self, tmp_path):
        rng = np.random.default_rng(5)
        schema = discrete_schema(2, 3, 2)
        n = 4000
        ds = dataset_from_columns(
            schema,
            rng.integers(0, 2, n),
            rng.integers(0, 3, n),
            rng.integers(0, 2, n),
        )
        data = tmp_path / "ind.csv"
        schema_path = tmp_path / "ind.schema.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        out = tmp_path / "ind"
        rc = main(
            ["learn", "--data", str(data), "--schema", str(schema_path),
             "--criterion", "mdl", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "ind.json").read_text())
        assert doc["edges"] == []

    def test_missing_schema_file_exits_2(self, tmp_path, star_files, capsys):
        data, _, _ = star_files
        rc = main(["learn", "--data", data, "--schema", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_bad_quad_order_exits_2(self, star_files, capsys):
        data, schema, _ = star_files
        # 1024 is the ladder's ceiling, so no doubling could confirm it
        for order in ("7", "1024"):
            rc = main(["learn", "--data", data, "--schema", schema, "--quad-order", order])
            assert rc == 2
            assert "order" in capsys.readouterr().err

    def test_bad_quad_tolerance_exits_2(self, star_files, capsys):
        data, schema, _ = star_files
        rc = main(["learn", "--data", data, "--schema", schema, "--quad-tol", "-1"])
        assert rc == 2
        assert "tolerance" in capsys.readouterr().err

    def test_custom_without_dn_exits_2(self, star_files):
        data, schema, _ = star_files
        assert main(["learn", "--data", data, "--schema", schema,
                     "--criterion", "custom"]) == 2

    def test_dn_with_ml_exits_2(self, star_files):
        data, schema, _ = star_files
        assert main(["learn", "--data", data, "--schema", schema, "--dn", "2"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--criterion", "custom", "--dn", "inf"], ["--criterion", "mdl", "--dn", "inf"],
         ["--criterion", "custom", "--dn", "nan"], ["--criterion", "custom", "--dn", "-1"]],
    )
    def test_non_finite_or_negative_dn_exits_2_naming_it(self, tmp_path, capsys, flags):
        # g1 is an exact copy of g0, so their I_n is +inf, and inf - inf
        # would give a NaN score
        g0 = np.random.default_rng(4).standard_normal(30)
        ds = dataset_from_columns(mixed_schema("ggd"), g0, g0, np.arange(30) % 2)
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main(["learn", "--data", str(data), "--schema", str(schema_path), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d_n" in err and err.count("\n") == 1

    def test_csv_error_reports_line_number(self, tmp_path, capsys):
        schema = discrete_schema(2)
        schema_path = write_text(
            tmp_path / "s.json",
            json.dumps([{"name": "v0", "kind": "discrete", "labels": ["c0", "c1"]}]),
        )
        data_path = write_text(tmp_path / "d.csv", "v0\nc0\nbogus\n")
        rc = main(["learn", "--data", data_path, "--schema", schema_path])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "bad, text",
        [("data", b"\xff\xfe not utf-8\n"), ("schema", b"\xff\xfe not utf-8\n"),
         # one field over the csv module's field size limit
         ("data", b"v0,v1,v2,v3\n" + b"c0" * 70_000 + b",c0,c0,c0\n"),
         # nested deeper than the json module's recursion limit
         ("schema", b"[" * 100_000 + b"]" * 100_000),
         # an integer past Python's digit limit, where a name must be a
         # string, so the file is bad whether or not the limit applies
         pytest.param("schema", b'[{"name": ' + b"9" * 5000 + b', "kind": "gaussian"}]',
                      id="schema-5000-digit-name")],
    )
    def test_unreadable_file_exits_2_naming_it(self, tmp_path, star_files, capsys, bad, text):
        paths = dict(zip(("data", "schema"), star_files))
        paths[bad] = str(tmp_path / f"bad-{bad}")
        Path(paths[bad]).write_bytes(text)
        rc = main(["learn", "--data", paths["data"], "--schema", paths["schema"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[bad]}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, message",
        [({"name": "g", "kind": "gaussian"}, "expected a JSON list of variables"),
         ([], "a schema needs at least one variable"),
         ([5], "schema entry 0: expected an object with a 'kind'"),
         ([{"name": "g", "kind": "gaussian"}, ["g1", "gaussian"]],
          "schema entry 1: expected an object with a 'kind'"),
         ([{"name": "g"}], "schema entry 0: 'kind' must be a string"),
         ([{"name": "g", "kind": ["gaussian"]}], "schema entry 0: 'kind' must be a string"),
         ([{"name": "g", "kind": "ordinal"}],
          "schema entry 0: unknown kind 'ordinal', expected one of ['discrete', 'gaussian']"),
         ([{"kind": "gaussian"}], "schema entry 0: 'name' must be a string"),
         ([{"name": 5, "kind": "gaussian"}], "schema entry 0: 'name' must be a string"),
         ([{"name": "", "kind": "gaussian"}], "schema entry 0: variable names must be nonempty"),
         ([{"name": "", "kind": "discrete", "labels": ["a", "b"]}],
          "schema entry 0: variable names must be nonempty"),
         ([{"name": "d", "kind": "discrete"}], "schema entry 0: 'labels' must be a list of strings"),
         ([{"name": "d", "kind": "discrete", "labels": [1, 2]}],
          "schema entry 0: 'labels' must be a list of strings"),
         ([{"name": "d", "kind": "discrete", "labels": ["a"]}],
          "schema entry 0: a discrete variable needs at least 2 categories, got 1"),
         ([{"name": "d", "kind": "discrete", "labels": ["a", "a"]}],
          "schema entry 0: duplicate category labels: ['a', 'a']"),
         ([{"name": "g", "kind": "gaussian"}, {"name": "g", "kind": "gaussian"}],
          "duplicate variable names: ['g', 'g']")],
        ids=["not a list", "no entries", "entry not an object", "second entry not an object",
             "no kind", "list kind", "unknown kind", "no name", "name", "empty gaussian name",
             "empty discrete name", "no labels", "label", "one label", "duplicate labels",
             "duplicate names"],
    )
    def test_bad_schema_exits_2_naming_the_entry(self, tmp_path, capsys, doc, message):
        schema_path = write_text(tmp_path / "s.json", json.dumps(doc))
        data_path = write_text(tmp_path / "d.csv", "g\n1\n2\n")
        rc = main(["learn", "--data", data_path, "--schema", schema_path])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {schema_path}: not a valid schema document: {message}\n"
        )

    def test_trailing_blank_lines_are_ignored(self, tmp_path, star_files):
        data, schema, _ = star_files
        padded = write_text(tmp_path / "padded.csv", Path(data).read_text() + "\n\n")
        assert learned_artifacts(tmp_path / "plain", data, schema) == learned_artifacts(
            tmp_path / "padded", padded, schema
        )

    def test_blank_line_mid_file_exits_2_naming_its_line(self, tmp_path, capsys):
        schema_path = write_text(
            tmp_path / "s.json",
            json.dumps([{"name": "v0", "kind": "discrete", "labels": ["c0", "c1"]}]),
        )
        data_path = write_text(tmp_path / "d.csv", "v0\nc0\n\nc1\n")
        rc = main(["learn", "--data", data_path, "--schema", schema_path])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_byte_order_mark_is_ignored(self, tmp_path, star_files, capsys):
        data, schema, _ = star_files
        bom = "\ufeff"
        bom_data = write_text(tmp_path / "bom.csv", bom + Path(data).read_text())
        bom_schema = write_text(tmp_path / "bom.schema.json", bom + Path(schema).read_text())
        assert learned_artifacts(tmp_path / "plain", data, schema) == learned_artifacts(
            tmp_path / "bom", bom_data, bom_schema
        )
        model = tmp_path / "plain.model.json"
        bom_model = write_text(tmp_path / "bom_model.json", bom + model.read_text())
        capsys.readouterr()
        outputs = []
        for path in (str(model), bom_model):
            assert main(["eval", "--model", path, "--data", data, "--criterion", "mdl"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--format", "both", "--out", "{d}/f", "--model-out", "{d}/nodir/m.json"],
             "{d}/nodir/m.json"),
            (["--format", "both", "--out", "{d}/nodir/f.json"], "{d}/nodir/f.json"),
            (["--format", "dot", "--out", "{d}/nodir/f"], "{d}/nodir/f.dot"),
            (["--out", "{d}/star.csv/f"], "{d}/star.csv/f.json"),
            (["--model-out", "{d}"], "{d}"),
            (["--out", "{d}/f.json", "--model-out", "{d}/f.json"], "{d}/f.json"),
            (["--format", "both", "--out", "{d}/f", "--model-out", "{d}/f.dot"], "{d}/f.dot"),
        ],
        ids=["model-out", "json", "dot", "parent-is-a-file", "a-directory", "same-file",
             "model-out-is-the-dot"],
    )
    def test_unwritable_output_exits_2_before_anything_runs(
        self, tmp_path, star_files, capsys, flags, named
    ):
        data, schema, _ = star_files
        before = sorted(tmp_path.rglob("*"))
        args = [flag.format(d=tmp_path) for flag in flags]
        assert main(["learn", "--data", data, "--schema", schema, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named.format(d=tmp_path)}: cannot write: ")
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


class TestOutputOntoInput:
    """An output that resolves to one of the run's inputs exits 2 naming
    it, before anything is read, printed or written."""

    @pytest.mark.parametrize(
        "argv, named, flag",
        [
            (["learn", "--data", "{d}/star.csv", "--schema", "{d}/star.schema.json",
              "--model-out", "{d}/star.csv"], "{d}/star.csv", "--data"),
            (["learn", "--data", "{d}/star.csv", "--schema", "{d}/star.schema.json",
              "--out", "{d}/star.schema"], "{d}/star.schema.json", "--schema"),
            (["score", "--data", "{d}/star.csv", "--schema", "{d}/star.schema.json",
              "--out", "{d}/sub/../star.csv"], "{d}/sub/../star.csv", "--data"),
            (["sample", "--model", "{d}/model.json", "--count", "5",
              "--out", "{d}/model.json"], "{d}/model.json", "--model"),
        ],
        ids=["learn", "learn-out-is-the-schema", "score", "sample"],
    )
    def test_output_onto_an_input_exits_2_naming_it(
        self, tmp_path, star_files, capsys, argv, named, flag
    ):
        _, _, ds = star_files
        (tmp_path / "sub").mkdir()
        model = fit(ds, Forest.from_edges(4, [(0, 1)]))
        write_text(tmp_path / "model.json", json.dumps(model.to_json_dict()) + "\n")
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert main([arg.format(d=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {named.format(d=tmp_path)}: cannot write: it is the {flag} input\n"
        )
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert after == before


class TestEmptyOutputPath:
    """An empty output path exits 2 naming its flag, before any input is
    read (the inputs here do not exist) and without writing anything."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["learn", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--out", ""], "--out"),
            (["learn", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--model-out", ""],
             "--model-out"),
            (["learn", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--format", "both",
              "--out", "{d}/f", "--model-out", ""], "--model-out"),
            (["score", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--out", ""], "--out"),
            (["sample", "--model", "{d}/no.json", "--count", "5", "--out", ""], "--out"),
        ],
        ids=["learn-out", "learn-model-out", "learn-model-out-beside-out", "score-out",
             "sample-out"],
    )
    def test_empty_output_path_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        assert main([arg.format(d=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: empty path\n"
        assert list(tmp_path.iterdir()) == []


# each output flag, last in an argv whose inputs do not exist
OUTPUT_FLAGS = {
    "json": ["learn", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--format", "json",
             "--out"],
    "both": ["learn", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--format", "both",
             "--out"],
    "learn-model-out": ["learn", "--data", "{d}/no.csv", "--schema", "{d}/no.json",
                        "--model-out"],
    "score-out": ["score", "--data", "{d}/no.csv", "--schema", "{d}/no.json", "--out"],
    "sample-out": ["sample", "--model", "{d}/no.json", "--count", "5", "--out"],
}


class TestOutNamesADirectory:
    """An output path whose last component is empty, "." or "..", so that
    it names a directory and no file, exits 2 naming it, before any input
    is read (the inputs here do not exist), with nothing printed or
    written (no hidden file such as DIR/.json, and no file named DIR)."""

    @pytest.mark.parametrize(
        "out", ["{d}/sub/", ".", "{d}/sub/..", "{d}/new/", "{d}/file/", "{d}/sub/."]
    )
    @pytest.mark.parametrize("argv", OUTPUT_FLAGS.values(), ids=OUTPUT_FLAGS.keys())
    def test_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, out, argv):
        (tmp_path / "sub").mkdir()
        write_text(tmp_path / "file", "kept\n")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        out = out.format(d=tmp_path)
        assert main([arg.format(d=tmp_path) for arg in argv] + [out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: cannot write: it names a directory\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "kept\n"


# each output file, written by the argv before its path; {data}, {schema}
# and {model} are the inputs
WRITES = {
    "learn-json": ["learn", "--data", "{data}", "--schema", "{schema}", "--out"],
    "learn-dot": ["learn", "--data", "{data}", "--schema", "{schema}", "--format", "dot", "--out"],
    "learn-model-out": ["learn", "--data", "{data}", "--schema", "{schema}", "--model-out"],
    "score-out": ["score", "--data", "{data}", "--schema", "{schema}", "--out"],
    "sample-out": ["sample", "--model", "{model}", "--count", "5", "--out"],
}
SUFFIX = {"learn-json": ".json", "learn-dot": ".dot", "learn-model-out": ".json",
          "score-out": ".csv", "sample-out": ".csv"}

# symlinks, permission bits and FIFOs are POSIX's: Windows needs a
# privilege to make a symlink, keeps only a read-only flag for a mode, and
# has no FIFO
posix_only = pytest.mark.skipif(os.name != "posix", reason="symlinks, modes and FIFOs are POSIX")


def _fail(*args):
    raise MemoryError("injected")


def _pieces_then_fail(*args):
    yield "partial"
    _fail()


# what each output's write calls, replaced by one that fails, part-way
# through the file where the write goes by pieces
FAILING_WRITE = {
    "learn-json": (cli, "_report_json", _pieces_then_fail),
    "learn-dot": (cli, "forest_dot", _fail),
    "learn-model-out": (DendroidModel, "to_json_dict", _fail),
    "score-out": (cli, "_score_csv", _pieces_then_fail),
    "sample-out": (cli, "iter_csv_text", _pieces_then_fail),
}


@pytest.mark.parametrize("case", WRITES)
class TestOutputFiles:
    """Every output file goes through one writer: the file a symlink leads
    to is replaced whole when the run succeeds, keeping an existing file's
    permission bits, and a run that fails leaves it as it was."""

    @pytest.fixture
    def inputs(self, tmp_path, star_files):
        data, schema, ds = star_files
        model = write_text(
            tmp_path / "model.json",
            json.dumps(fit(ds, Forest.from_edges(4, [(0, 1)])).to_json_dict()) + "\n",
        )
        (tmp_path / "out").mkdir()
        return {"data": data, "schema": schema, "model": model}

    @staticmethod
    def write(case, inputs, path) -> int:
        return main([arg.format(**inputs) for arg in WRITES[case]] + [str(path)])

    def expected(self, case, inputs, tmp_path) -> bytes:
        """The bytes the output gets at a plain new path."""
        (tmp_path / "plain").mkdir()
        path = tmp_path / "plain" / f"f{SUFFIX[case]}"
        assert self.write(case, inputs, path) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["new", "existing"])
    def test_failed_write_leaves_the_file_as_it_was(
        self, tmp_path, inputs, capsys, case, existing
    ):
        out = tmp_path / "out" / f"f{SUFFIX[case]}"
        if existing is not None:
            out.write_bytes(existing)
        with mock.patch.object(*FAILING_WRITE[case]):
            assert self.write(case, inputs, out) == 1
        assert capsys.readouterr().err == "error: out of memory: injected\n"
        assert os.listdir(out.parent) == ([] if existing is None else [out.name])
        if existing is not None:
            assert out.read_bytes() == existing

    @posix_only
    def test_symlink_is_written_through(self, tmp_path, inputs, case):
        expected = self.expected(case, inputs, tmp_path)
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / f"f{SUFFIX[case]}"
        target.write_bytes(b"old\n")
        link = tmp_path / "out" / f"link{SUFFIX[case]}"
        link.symlink_to(Path("..", "real", target.name))
        assert self.write(case, inputs, link) == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("..", "real", target.name)
        assert target.read_bytes() == expected
        assert os.listdir(tmp_path / "real") == [target.name]
        assert os.listdir(tmp_path / "out") == [link.name]

    @posix_only
    def test_existing_file_keeps_its_mode_and_new_file_takes_the_umask(
        self, tmp_path, inputs, case
    ):
        expected = self.expected(case, inputs, tmp_path)
        old, new = (tmp_path / "out" / f"{name}{SUFFIX[case]}" for name in ("old", "new"))
        old.write_bytes(b"old\n")
        old.chmod(0o600)
        # the old file is replaced whole: a hard link to it keeps its bytes
        os.link(old, tmp_path / "hard")
        umask = os.umask(0o027)
        try:
            assert self.write(case, inputs, old) == 0
            assert self.write(case, inputs, new) == 0
        finally:
            os.umask(umask)
        assert old.read_bytes() == new.read_bytes() == expected
        assert (old.stat().st_mode & 0o7777, new.stat().st_mode & 0o7777) == (0o600, 0o640)
        assert (tmp_path / "hard").read_bytes() == b"old\n"

    @posix_only
    def test_fifo_is_written_in_place(self, tmp_path, inputs, case):
        # a FIFO, as /dev/stdout can be, cannot be replaced: it is opened
        # and written, and stays a FIFO; the reader is opened first, so the
        # writer's open does not wait (the output fits in a pipe's buffer)
        expected = self.expected(case, inputs, tmp_path)
        fifo = tmp_path / "out" / f"fifo{SUFFIX[case]}"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert self.write(case, inputs, fifo) == 0
            received = b"".join(iter(lambda: os.read(reader, 65536), b""))
        finally:
            os.close(reader)
        assert received == expected
        assert fifo.is_fifo() and os.listdir(fifo.parent) == [fifo.name]

    def test_long_file_name_is_written(self, tmp_path, inputs, case):
        # a name of 250 bytes is valid, but not with a longer temp name beside it
        if not hasattr(os, "pathconf") or os.pathconf(tmp_path, "PC_NAME_MAX") < 250:
            pytest.skip("the file system takes no name of 250 bytes")
        expected = self.expected(case, inputs, tmp_path)
        out = tmp_path / "out" / ("s" * (250 - len(SUFFIX[case])) + SUFFIX[case])
        assert self.write(case, inputs, out) == 0
        assert out.read_bytes() == expected
        assert os.listdir(out.parent) == [out.name]

    @posix_only
    def test_dangling_link_into_a_missing_directory_exits_2_before_reading(
        self, tmp_path, capsys, case
    ):
        # the inputs do not exist: the output is checked first
        missing = {name: str(tmp_path / f"no.{name}") for name in ("data", "schema", "model")}
        link = tmp_path / f"link{SUFFIX[case]}"
        link.symlink_to(Path("missing", "dir", f"f{SUFFIX[case]}"))
        assert self.write(case, missing, link) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {link}: cannot write: {tmp_path / 'missing' / 'dir'} is not a directory\n"
        )
        assert os.listdir(tmp_path) == [link.name]


@pytest.mark.parametrize("failing", ["learn-json", "learn-dot", "learn-model-out"])
def test_failed_learn_leaves_all_its_outputs_as_they_were(tmp_path, star_files, capsys, failing):
    """learn writes its forest JSON, DOT and model files before it replaces
    any: a failure in any one of the three writers leaves every file with
    its old bytes and no temp file beside them, not a set of files that
    no single run wrote."""
    data, schema, _ = star_files
    out = tmp_path / "out"
    out.mkdir()
    files = {name: out / name for name in ("f.json", "f.dot", "m.json")}
    for name, path in files.items():
        path.write_bytes(f"old {name}\n".encode())
    argv = ["learn", "--data", data, "--schema", schema, "--format", "both",
            "--out", str(out / "f"), "--model-out", str(files["m.json"])]
    with mock.patch.object(*FAILING_WRITE[failing]):
        assert main(argv) == 1
    assert capsys.readouterr().err == "error: out of memory: injected\n"
    assert sorted(os.listdir(out)) == sorted(files)
    for name, path in files.items():
        assert path.read_bytes() == f"old {name}\n".encode()
    assert main(argv) == 0
    assert all(path.read_bytes() != f"old {name}\n".encode() for name, path in files.items())
    assert sorted(os.listdir(out)) == sorted(files)


@pytest.mark.parametrize("command", ["learn", "score"])
def test_learn_and_score_name_their_faults_in_one_order(tmp_path, star_files, capsys, command):
    """An invocation with five faults names them one at a time, in the
    order learn and score check them, with the same one-line message from
    both: the output, the criterion, the quadrature, the schema, the
    data. Once each is mended the run succeeds."""
    data, schema, _ = star_files
    (tmp_path / "out.json").mkdir()
    lines = Path(data).read_text().splitlines(keepends=True)
    lines[2] = "c9" + lines[2][2:]
    bad_data = write_text(tmp_path / "bad.csv", "".join(lines))
    flags = {
        "--data": bad_data, "--schema": str(tmp_path / "missing.json"), "--criterion": "custom",
        "--quad-order": "7", "--out": str(tmp_path / "out.json"),
    }
    mends = [
        ({"--out": str(tmp_path / "result.json")},
         f"{tmp_path / 'out.json'}: cannot write: it is a directory"),
        ({"--dn": "1"}, "--criterion custom requires --dn"),
        ({"--quad-order": "16"}, "quadrature order must be an even integer >= 8, got 7"),
        ({"--schema": schema}, f"no such file: {tmp_path / 'missing.json'}"),
        ({"--data": data},
         f"{bad_data} line 3: row 1: 'c9' is not a category of 'v0' (labels: ['c0', 'c1'])"),
    ]
    for mend, message in mends:
        assert main([command, *itertools.chain(*flags.items())]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        flags.update(mend)
    assert main([command, *itertools.chain(*flags.items())]) == 0
    assert (tmp_path / "result.json").is_file()


class TestExitCodes:
    """The exit code of each error class: 2 for the input and usage errors,
    the subclasses of UsageError, and 1 for every other DendrofitError."""

    USAGE = {
        "UnknownCategory", "NonFiniteValue", "ArityMismatch", "EmptyDataset",
        "SchemaMismatch", "InvalidCount", "DataFormatError",
    }
    CLASSES = sorted(
        (cls for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, errors.DendrofitError)),
        key=lambda cls: cls.__name__,
    )

    def test_the_usage_errors_are_the_subclasses_of_usage_error(self):
        usage = {
            cls.__name__ for cls in self.CLASSES
            if issubclass(cls, errors.UsageError) and cls is not errors.UsageError
        }
        assert usage == self.USAGE

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class_exits_with_its_code(self, monkeypatch, capsys, cls):
        def fail(config):
            raise cls("what went wrong")

        monkeypatch.setitem(cli._HANDLERS, "eval", fail)
        expected = 2 if issubclass(cls, errors.UsageError) else 1
        assert main(["eval", "--model", "m.json", "--data", "d.csv"]) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: what went wrong\n"


class TestScore:
    def test_two_variable_table(self, tmp_path, capsys):
        schema = discrete_schema(2, 2)
        ds = dataset_from_columns(schema, [0, 0, 1, 1], [0, 0, 1, 1])
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main(["score", "--data", str(data), "--schema", str(schema_path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,j,name_i,name_j,mi,penalty,score"
        assert len(lines) == 2
        assert lines[1].startswith("0,1,v0,v1,")
        assert float(lines[1].split(",")[4]) == pytest.approx(4 * math.log(2))

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
    def test_non_finite_quad_tolerance_exits_2(self, tmp_path, capsys, tol):
        # the pair's I_n is exactly 0, where tolerance inf * 0 = nan could
        # never confirm a rung
        write_text(tmp_path / "d.csv", "d,g\na,0\na,1\nb,0\nb,1\n")
        schema = [{"name": "d", "kind": "discrete", "labels": ["a", "b"]},
                  {"name": "g", "kind": "gaussian"}]
        write_text(tmp_path / "s.json", json.dumps(schema))
        rc = main(["score", "--data", str(tmp_path / "d.csv"),
                   "--schema", str(tmp_path / "s.json"), "--quad-tol", tol])
        assert rc == 2
        err = capsys.readouterr().err
        want = "nan" if tol == "nan" else "inf"
        assert err == f"error: tolerance must be finite and positive, got {want}\n"

    def test_degenerate_column_exits_1_naming_it(self, tmp_path, capsys):
        schema = mixed_schema("gg")
        ds = dataset_from_columns(schema, [1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main(["score", "--data", str(data), "--schema", str(schema_path)])
        assert rc == 1
        assert "v0" in capsys.readouterr().err

    def test_zero_residual_variance_names_the_pair_once(self, tmp_path, capsys):
        # v1 is constant within each class of v0
        schema = mixed_schema("dg")
        ds = dataset_from_columns(schema, [0, 0, 1, 1], [1.0, 1.0, 2.0, 2.0])
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main(["score", "--data", str(data), "--schema", str(schema_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "pair ('v0', 'v1')" in err and err.count("pair (") == 1

    @pytest.mark.parametrize(
        "column, message",
        [
            # the mean of seven 0.1s does not round-trip: a variance around
            # it is 1.9e-34, not 0
            ([0.1] * 7, "column 'g0' has zero sample variance"),
            # g0 is an exact function of d0's class (residual variance 5.3e-33)
            ([0.1, 0.7] * 3 + [0.1], "pooled residual variance is zero"),
        ],
    )
    @pytest.mark.parametrize("command", [["score"], ["learn", "--criterion", "mdl"]])
    def test_exact_degeneracy_exits_1_naming_the_pair_once(
        self, tmp_path, capsys, column, message, command
    ):
        schema = VariableSchema(
            (Variable("g0", Gaussian()), Variable("d0", Discrete(("a", "b"))))
        )
        ds = dataset_from_columns(schema, column, [0, 1] * 3 + [0])
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main([*command, "--data", str(data), "--schema", str(schema_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: pair ('g0', 'd0'): {message}\n"

    def test_subnormal_residual_variance_scores_without_a_warning(self, tmp_path, capsys):
        # class a holds 0.5, class b alternates 1e-160 and 2e-160: in scaled
        # units the residual variance is subnormal and the class means are
        # about 1e160 sd apart, so I_n is the class entropy, n ln 2
        rows = "".join("a,0.5\n" if r % 2 else f"b,{(1 + r % 4 // 2) * 1e-160!r}\n"
                       for r in range(20))
        data = write_text(tmp_path / "d.csv", "d,g\n" + rows)
        schema = write_text(
            tmp_path / "s.json",
            '[{"name": "d", "kind": "discrete", "labels": ["a", "b"]}, '
            '{"name": "g", "kind": "gaussian"}]',
        )
        assert main(["score", "--data", data, "--schema", schema]) == 0
        captured = capsys.readouterr()
        mi = float(captured.out.splitlines()[1].split(",")[4])
        assert captured.err == "" and mi == pytest.approx(20 * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("power", [-332, 532, -560])
    def test_gaussian_columns_at_extreme_scales_score_as_at_scale_one(
        self, tmp_path, capsys, power
    ):
        # at 2^-332 a product of two variances underflows, at 2^532 a
        # variance overflows and at 2^-560 one underflows; I_n is a property
        # of the scaled columns, but a fitted model holds the variances
        rng = np.random.default_rng(1)
        d0 = rng.integers(0, 3, 40)
        g0 = rng.standard_normal(40)
        g1 = 0.6 * g0 + rng.standard_normal(40)
        g2 = 3.0 * d0 + rng.standard_normal(40)
        schema = mixed_schema("ggDg")

        def run(command, k):
            columns = (np.ldexp(g0, k), np.ldexp(g1, k), d0, np.ldexp(g2, k))
            data, schema_path = tmp_path / f"d{k}.csv", tmp_path / "s.json"
            write_csv_dataset(data, dataset_from_columns(schema, *columns))
            write_schema(schema_path, schema)
            rc = main([*command, "--data", str(data), "--schema", str(schema_path)])
            return rc, capsys.readouterr()

        _, at_one = run(["score", "--format", "json"], 0)
        rc, scaled = run(["score", "--format", "json"], power)
        assert rc == 0 and scaled.err == ""
        assert json.loads(scaled.out)["pairs"] == json.loads(at_one.out)["pairs"]
        rc, learned = run(["learn", "--criterion", "mdl"], power)
        if power in (532, -560):
            assert rc == 1
            assert learned.err == "error: column 'v0' has a variance beyond the float range\n"
        else:
            assert rc == 0 and learned.err == ""

    def test_affine_copy_is_fitted_exactly_when_its_score_is_finite(self, tmp_path, capsys):
        # whether y = a x + b reaches |rho| = 1 is decided by rounding;
        # scoring and fitting must decide it from the same value
        rng = np.random.default_rng(6)
        schema = mixed_schema("gg")
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_schema(schema_path, schema)
        for _ in range(300):
            n = int(rng.integers(2, 301))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)
            b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 3) * np.abs(x).max()
            ds = dataset_from_columns(schema, x, a * x + b)
            write_csv_dataset(data, ds)
            want = mi_gaussian(collect_pair_stats(ds, 0, 1))
            assert main(["score", "--data", str(data), "--schema", str(schema_path),
                         "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["pairs"][0]["mi"] == want
            rc = main(["learn", "--data", str(data), "--schema", str(schema_path)])
            err = capsys.readouterr().err
            if math.isinf(want):
                assert rc == 1
                assert err == (
                    "error: edge ('v0', 'v1'): perfectly correlated columns cannot be fitted\n"
                )
            else:
                assert rc == 0 and err == ""

    def test_injected_mi_reproduces_worked_table(self, tmp_path, monkeypatch, capsys):
        # the six-pair worked example: inject its I values through the
        # estimator hook and check the J column
        table_i = {(0, 1): 12.0, (0, 2): 10.0, (1, 2): 8.0,
                   (0, 3): 6.0, (1, 3): 4.0, (2, 3): 2.0}
        expect_j = {(0, 1): 8.0, (0, 2): 2.0, (1, 2): 6.0,
                    (0, 3): -6.0, (1, 3): 1.0, (2, 3): -4.0}
        i, j = np.triu_indices(4, 1)
        injected = i, j, np.array([table_i[pair] for pair in zip(i.tolist(), j.tolist())])
        monkeypatch.setattr(
            "dendrofit.scoring.pair_mi_table", lambda dataset, quad: injected
        )
        schema = discrete_schema(5, 2, 3, 4)
        ds = dataset_from_columns(schema, [0, 1], [0, 1], [0, 1], [0, 1])
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main(
            ["score", "--data", str(data), "--schema", str(schema_path),
             "--criterion", "custom", "--dn", "2", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pairs"]) == 6
        for row in doc["pairs"]:
            assert row["score"] == expect_j[(row["i"], row["j"])]
            assert row["mi"] == table_i[(row["i"], row["j"])]

    def test_score_out_file(self, tmp_path, star_files):
        data, schema, _ = star_files
        out = tmp_path / "scores.csv"
        rc = main(["score", "--data", data, "--schema", schema, "--out", str(out)])
        assert rc == 0
        assert out.read_text().count("\n") == 7  # header + 6 pairs

    def test_out_in_missing_directory_exits_2_naming_it(self, tmp_path, star_files, capsys):
        data, schema, _ = star_files
        out = tmp_path / "nodir" / "scores.csv"
        assert main(["score", "--data", data, "--schema", schema, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.parent.exists()
        assert captured.err == f"error: {out}: cannot write: {out.parent} is not a directory\n"

    def test_names_with_commas_and_quotes_read_back(self, tmp_path, capsys):
        names = ("a,b", 'say "hi"', "plain")
        schema = VariableSchema(
            (
                Variable(names[0], Discrete(("x", "y"))),
                Variable(names[1], Gaussian()),
                Variable(names[2], Gaussian()),
            )
        )
        ds = dataset_from_columns(
            schema,
            [0, 1, 0, 1, 1],
            [0.5, 2.0, 0.1, 1.5, 2.5],
            [1.0, 3.0, 0.0, 2.0, 4.5],
        )
        data, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
        write_csv_dataset(data, ds)
        write_schema(schema_path, ds.schema)
        rc = main(["score", "--data", str(data), "--schema", str(schema_path)])
        assert rc == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["i", "j", "name_i", "name_j", "mi", "penalty", "score"]
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 7
            i, j = int(row[0]), int(row[1])
            assert (row[2], row[3]) == (names[i], names[j])
            assert float(row[6]) == float(row[4]) - float(row[5])


@pytest.fixture
def chain_model_file(tmp_path):
    """A well-separated mixed chain model written to JSON."""
    rng = np.random.default_rng(2)
    schema = mixed_schema("dgg")
    n = 3000
    y = rng.integers(0, 2, n)
    x1 = np.where(y == 1, 3.0, -3.0) + rng.standard_normal(n)
    x2 = 0.9 * x1 + rng.standard_normal(n) * 0.8
    ds = dataset_from_columns(schema, y, x1, x2)
    model = fit(ds, Forest.from_edges(3, [(0, 1), (1, 2)]))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_json_dict(), indent=2) + "\n")
    return str(path), model, ds


class TestSample:
    def test_deterministic_csv(self, tmp_path, chain_model_file):
        model_path, _, _ = chain_model_file
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"s_{tag}.csv"
            rc = main(["sample", "--model", model_path, "--count", "200",
                       "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_out_file_and_stdout_match_the_row_renderer(self, tmp_path, capsys):
        # labels that need quoting, and more rows than one block of cells
        schema = VariableSchema(
            (
                Variable("kind, of", Discrete(("a,b", 'say "hi"', "plain"))),
                Variable("x", Gaussian()),
                Variable("y", Gaussian()),
                Variable("z", Discrete(("p", "q"))),
            )
        )
        rng = np.random.default_rng(3)
        n = 600
        k = rng.integers(0, 3, n)
        x = k * 2.0 + rng.standard_normal(n)
        y = -0.5 * x + rng.standard_normal(n) * 1e-3
        z = (rng.random(n) < np.where(k == 1, 0.9, 0.2)).astype(np.int64)
        model = fit(
            dataset_from_columns(schema, k, x, y, z),
            Forest.from_edges(4, [(0, 1), (1, 2), (0, 3)]),
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_json_dict()) + "\n")
        count = BLOCK_CELLS // 4 + 1000
        args = ["sample", "--model", str(model_path), "--count", str(count),
                "--seed", "12"]
        out = tmp_path / "s.csv"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        to_stdout = capsys.readouterr().out.encode("utf-8")
        expected = render_csv_rows(sample(model, count, 12)).encode("utf-8")
        assert out.read_bytes() == to_stdout == expected

    def test_zero_count_exits_2(self, chain_model_file, capsys):
        model_path, _, _ = chain_model_file
        rc = main(["sample", "--model", model_path, "--count", "0"])
        assert rc == 2
        assert "count" in capsys.readouterr().err.lower()

    def test_zero_count_exits_2_naming_the_flag(self, tmp_path, capsys):
        # checked before the model is read: the missing file is not reported
        args = ["sample", "--model", str(tmp_path / "no.json"), "--count", "0"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --count must be a positive integer, got 0\n"

    def test_zero_count_leaves_the_out_file_untouched(self, tmp_path, chain_model_file):
        model_path, _, _ = chain_model_file
        out = tmp_path / "rows.csv"
        out.write_bytes(b"kept\n")
        args = ["sample", "--model", model_path, "--count", "0", "--out", str(out)]
        assert main(args) == 2
        assert out.read_bytes() == b"kept\n"

    def test_peak_does_not_grow_with_the_count(self, tmp_path):
        """Rows are drawn and written a block at a time, and no block is
        held beside the next: from 20,000 rows to 200,000 the peak grows by
        at most 256 KiB, where holding the added rows' four columns would
        take 5.76 MB at 8 bytes a cell."""
        schema = mixed_schema("dgDg")
        rng = np.random.default_rng(6)
        n = 400
        k = rng.integers(0, 3, n)
        x = rng.standard_normal(n) + k
        model = fit(
            dataset_from_columns(schema, rng.integers(0, 2, n), x, k, x + rng.standard_normal(n)),
            Forest.from_edges(4, [(0, 1), (1, 2), (1, 3)]),
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_json_dict()) + "\n")

        def peak(count):
            args = ["sample", "--model", str(model_path), "--count", str(count),
                    "--seed", "3", "--out", str(tmp_path / "rows.csv")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # blocks of at most 1,024 cells to render, so that both counts span
        # many blocks to draw
        with mock.patch.object(dataio, "BLOCK_CELLS", 1024):
            peak(20_000)  # first-call allocations are not counted
            assert peak(200_000) - peak(20_000) <= 256 * 1024

    def test_draws_that_overflow_exit_2_naming_the_column(self, tmp_path, capsys):
        # the conditional slope 0.5 sqrt(var_1 / var_0) of vertex 1 is
        # about 2.2e311, beyond the float range
        schema = mixed_schema("gg")
        model = DendroidModel.build(
            schema=schema,
            forest=Forest.from_edges(2, [(0, 1)]),
            marginals=(GaussianMarginal(0.0, 5e-324), GaussianMarginal(0.0, 1e300)),
            factors=(GaussianEdgeFactor(0, 1, 0.5, 0.0, 5e-324, 0.0, 1e300),),
            n=2,
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_json_dict()) + "\n")
        assert main(["sample", "--model", str(model_path), "--count", "5"]) == 2
        assert capsys.readouterr().err == "error: column 'v1' contains non-finite values\n"

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["new", "existing"])
    def test_failed_draw_leaves_no_partial_out_file(self, tmp_path, capsys, existing):
        # the model above: the first block's draw overflows, after --out
        # would have been opened and its header written
        model = DendroidModel.build(
            schema=mixed_schema("gg"),
            forest=Forest.from_edges(2, [(0, 1)]),
            marginals=(GaussianMarginal(0.0, 5e-324), GaussianMarginal(0.0, 1e300)),
            factors=(GaussianEdgeFactor(0, 1, 0.5, 0.0, 5e-324, 0.0, 1e300),),
            n=2,
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_json_dict()) + "\n")
        out = tmp_path / "f.csv"
        if existing is not None:
            out.write_bytes(existing)
        args = ["sample", "--model", str(model_path), "--count", "5", "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: column 'v1' contains non-finite values\n"
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["model.json"] + ([] if existing is None else ["f.csv"])
        )

    def test_same_bytes_with_numpy_dispatch_targets_off(self, tmp_path):
        """np.log10 guesses each Gaussian cell's decimal exponent, and its
        bits change when numpy's SIMD loops are switched off; the digits
        come from basic operations, so the CSV bytes do not. On a host
        with none of numpy's dispatch targets (AVX2 and AVX-512 on x86)
        both runs take the same loops, and the test shows nothing."""
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(every_kind_model().to_json_dict()) + "\n")
        base, off = dispatch_envs()
        outputs = []
        for run_index, env in enumerate([base, off]):
            out = tmp_path / f"rows{run_index}.csv"
            run = subprocess.run(
                [sys.executable, "-m", "dendrofit", "sample", "--model", str(model_path),
                 "--count", "20000", "--seed", "4", "--out", str(out)],
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert (run.returncode, run.stderr) == (0, b"")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_importing_the_cli_loads_no_more_of_numpy(self):
        # numpy 2 loads numpy.random on first use, and that adds about 5.5 MB
        # to the peak of every subcommand that does not sample
        package = str(Path(dendrofit.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, numpy; before = set(sys.modules); import dendrofit.cli; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr

    def test_missing_model_exits_2(self, tmp_path):
        rc = main(["sample", "--model", str(tmp_path / "no.json"), "--count", "5"])
        assert rc == 2

    def test_out_in_missing_directory_exits_2_naming_it(self, tmp_path, capsys):
        # checked before the model is read: the missing model is not reported
        out = tmp_path / "nodir" / "rows.csv"
        args = ["sample", "--model", str(tmp_path / "no.json"), "--count", "5", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: cannot write: {out.parent} is not a directory\n"
        )

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        # checked before the model is read: the missing file is not reported
        args = ["sample", "--model", str(tmp_path / "no.json"), "--count", "5", "--seed", "-1"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError(), "error: out of memory\n"),
            (
                MemoryError("Unable to allocate 7.28 TiB for an array with\nshape (10**12,)"),
                "error: out of memory: Unable to allocate 7.28 TiB for an array with "
                "shape (10**12,)\n",
            ),
        ],
    )
    def test_out_of_memory_exits_1_with_one_line(
        self, chain_model_file, monkeypatch, capsys, error, message
    ):
        # the draw is replaced by one that fails at once: nothing is allocated
        def fail(model, count, seed):
            raise error

        monkeypatch.setattr("dendrofit.cli.sample_blocks", fail)
        model_path, _, _ = chain_model_file
        rc = main(["sample", "--model", model_path, "--count", "1000000000000"])
        assert rc == 1
        assert capsys.readouterr().err == message

    def test_sample_then_learn_recovers_structure(self, tmp_path, chain_model_file):
        model_path, model, _ = chain_model_file
        samples = tmp_path / "samples.csv"
        rc = main(["sample", "--model", model_path, "--count", "10000",
                   "--seed", "4", "--out", str(samples)])
        assert rc == 0
        schema_path = tmp_path / "schema.json"
        write_schema(schema_path, model.schema)
        out = tmp_path / "relearn"
        rc = main(["learn", "--data", str(samples), "--schema", str(schema_path),
                   "--criterion", "mdl", "--out", str(out)])
        assert rc == 0
        doc = json.loads((tmp_path / "relearn.json").read_text())
        assert doc["edges"] == [[0, 1], [1, 2]]


# edits that make the chain model file (marginals: discrete, Gaussian,
# Gaussian; factors: mixed (0, 1), Gaussian (1, 2)) invalid; an edit that
# returns a value replaces the whole document
# edits to the chain model's document that make a factor contradict its
# endpoints' marginals, and the edge each contradiction is in
CONTRADICTIONS = {
    "gaussian var_i times 4": ("(1, 2)", lambda doc: doc["edge_factors"][1].update(
        var_i=4 * doc["edge_factors"][1]["var_i"]
    )),
    "rotated class_probs": ("(0, 1)", lambda doc: doc["edge_factors"][0].update(
        class_probs=doc["edge_factors"][0]["class_probs"][1:]
        + doc["edge_factors"][0]["class_probs"][:1]
    )),
    "class means plus 10": ("(0, 1)", lambda doc: doc["edge_factors"][0].update(
        class_means=[m + 10.0 for m in doc["edge_factors"][0]["class_means"]]
    )),
}

BAD_MODELS = {
    "top-level list": lambda doc: [1, 2],
    "unknown marginal kind": lambda doc: doc["marginals"][1].update(kind="gausian"),
    "unknown factor kind": lambda doc: doc["edge_factors"][0].update(kind="gausian"),
    "string mean": lambda doc: doc["marginals"][1].update(mean="x"),
    "too few classes": lambda doc: doc["edge_factors"][0].update(
        class_probs=[1.0], class_means=[0.0]
    ),
    "too many classes": lambda doc: doc["edge_factors"][0].update(
        class_probs=[0.5, 0.25, 0.25], class_means=[0.0, 1.0, 2.0]
    ),
    "gaussian factor on a discrete vertex": lambda doc: doc["edge_factors"][0].update(
        kind="gaussian", i=0, j=1, rho=0.5, mean_i=0.0, var_i=1.0, mean_j=0.0, var_j=1.0
    ),
    "self-loop edge": lambda doc: doc.update(edges=[[0, 0]]),
    "zero variance": lambda doc: doc["marginals"][1].update(var=0.0),
    "rho of one": lambda doc: doc["edge_factors"][1].update(rho=1.0),
    "2-D probs": lambda doc: doc["marginals"][0].update(probs=[[0.5], [0.5]]),
    "fractional n": lambda doc: doc.update(n=3.7),
    "zero n": lambda doc: doc.update(n=0),
    "negative n": lambda doc: doc.update(n=-7),
    "bad schema entry": lambda doc: doc["schema"][0].update(kind="ordinal"),
    # a bool among numbers, read as 1 or 0, would make a valid array
    "bool among class means": lambda doc: doc["edge_factors"][0].update(
        class_means=[True, 1.0]
    ),
    "bool in a discrete table": lambda doc: bool_in_table(every_kind_model().to_json_dict()),
    "no edges": lambda doc: doc.__delitem__("edges"),
    "mixed factor without class_means": lambda doc: doc["edge_factors"][0].__delitem__(
        "class_means"
    ),
    # text: json.dumps cannot write an integer past Python's digit limit;
    # the count is wrong, so the file is bad whether or not the limit applies
    "5000-digit param_count": lambda doc: json.dumps(doc).replace(
        f'"param_count": {doc["param_count"]}', '"param_count": ' + "9" * 5000
    ),
    "marginal summing to 1.1": lambda doc: doc["marginals"][0].update(probs=[0.5, 0.6]),
    "table summing to 2": lambda doc: doubled_table(every_kind_model().to_json_dict()),
    "class probabilities summing to 1.1": lambda doc: doc["edge_factors"][0].update(
        class_probs=[0.5, 0.6]
    ),
    "gaussian factor of zero variance": lambda doc: doc["edge_factors"][1].update(var_j=0.0),
    "gaussian factor of no conditional variance": lambda doc: no_conditional_variance(doc),
    "more class means than classes": lambda doc: doc["edge_factors"][0].update(
        class_means=[0.0, 1.0, 2.0]
    ),
    "zero residual variance": lambda doc: doc["edge_factors"][0].update(resid_var=0.0),
    "one marginal short": lambda doc: doc["marginals"].__delitem__(-1),
    "factors out of edge order": lambda doc: doc["edge_factors"].reverse(),
    "gaussian marginal of a discrete vertex": lambda doc: doc["marginals"].__setitem__(
        0, {"kind": "gaussian", "mean": 0.0, "var": 1.0}
    ),
    "version 2": lambda doc: doc.update(version=2),
    "marginal that is not an object": lambda doc: doc["marginals"].__setitem__(0, [0.5, 0.5]),
    "list factor kind": lambda doc: doc["edge_factors"][0].update(kind=["mixed"]),
    "gaussian marginal without var": lambda doc: doc["marginals"][1].__delitem__("var"),
    # each sum overflows to inf, which numpy would warn of
    "marginal probs of 1e308": lambda doc: doc["marginals"][0].update(probs=[1e308, 1e308]),
    "table cells of 1e308": lambda doc: overflowing_table(every_kind_model().to_json_dict()),
    **{name: edit for name, (_, edit) in CONTRADICTIONS.items()},
}


# the exact message after "not a valid model document: " of some BAD_MODELS
BAD_MODEL_MESSAGES = {
    "no edges": "'edges'",
    "gaussian factor of no conditional variance":
        "edge factor 1: edge (1, 2): conditional variance var (1 - rho^2) underflows to 0",
    "unknown marginal kind":
        "marginal 1: unknown kind 'gausian', expected one of ['discrete', 'gaussian']",
    "unknown factor kind":
        "edge factor 0: unknown kind 'gausian', expected one of ['discrete', 'gaussian', 'mixed']",
    "marginal that is not an object": "marginal 0: expected an object with a 'kind'",
    "list factor kind": "edge factor 0: 'kind' must be a string",
    "gaussian marginal without var": "marginal 1: 'var' must be a finite real",
    "mixed factor without class_means":
        "edge factor 0: 'class_means' must be a list of finite reals",
    "marginal probs of 1e308":
        "marginal 0: marginal probabilities must be nonnegative and sum to 1",
    "table cells of 1e308": "edge factor 3: joint table must be nonnegative and sum to 1",
}


def no_conditional_variance(doc):
    """doc with vertices 1 and 2 of variance 1e-310 and their Gaussian
    factor's rho 1 - 2^-53, so that var (1 - rho^2) underflows to 0 and
    a child of the factor would be a point mass, while every factor
    still reproduces its endpoints' marginals."""
    var = 1e-310
    for v in (1, 2):
        doc["marginals"][v].update(mean=0.0, var=var)
    mixed, gaussian = doc["edge_factors"][:2]
    mixed.update(class_means=[0.0, 0.0], resid_var=var)
    gaussian.update(rho=0.9999999999999999, mean_i=0.0, var_i=var, mean_j=0.0, var_j=var)
    return doc


def doubled_table(doc):
    """doc with every cell of its (2, 3) table doubled."""
    factor = doc["edge_factors"][3]
    factor["table"] = [[2.0 * cell for cell in row] for row in factor["table"]]
    return doc


def overflowing_table(doc):
    """doc with every cell of its (2, 3) table 1e308."""
    factor = doc["edge_factors"][3]
    factor["table"] = [[1e308] * 3] * 2
    return doc


def bool_in_table(doc):
    """doc with the zero cell of its (2, 3) table written as false."""
    table = doc["edge_factors"][3]["table"]
    assert table[0][1] == 0.0
    table[0][1] = False
    return doc


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("eval")


class TestEval:
    @pytest.mark.parametrize("command", ["eval", "sample"])
    @pytest.mark.parametrize("name", list(BAD_MODELS), ids=list(BAD_MODELS))
    def test_bad_model_file_exits_2_naming_it(
        self, tmp_path, chain_model_file, capsys, command, name
    ):
        model_path, _, ds = chain_model_file
        data = tmp_path / "d.csv"
        write_csv_dataset(data, ds)
        doc = json.loads(Path(model_path).read_text())
        edited = BAD_MODELS[name](doc)
        text = edited if isinstance(edited, str) else json.dumps(doc if edited is None else edited)
        Path(model_path).write_text(text)
        flags = ["--data", str(data)] if command == "eval" else ["--count", "5"]
        rc = main([command, "--model", model_path, *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1
        if name in BAD_MODEL_MESSAGES:
            assert err == (
                f"error: {model_path}: not a valid model document: {BAD_MODEL_MESSAGES[name]}\n"
            )

    @pytest.mark.parametrize("edge, edit", CONTRADICTIONS.values(), ids=CONTRADICTIONS.keys())
    def test_contradicting_factor_names_its_edge(
        self, tmp_path, chain_model_file, capsys, edge, edit
    ):
        model_path, _, ds = chain_model_file
        data = tmp_path / "d.csv"
        write_csv_dataset(data, ds)
        doc = json.loads(Path(model_path).read_text())
        edit(doc)
        Path(model_path).write_text(json.dumps(doc))
        assert main(["eval", "--model", model_path, "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: ") and f"edge {edge}: " in err

    def test_reproduces_learn_description_length_bit_for_bit(
        self, tmp_path, star_files, capsys
    ):
        data, schema, _ = star_files
        out = tmp_path / "learned"
        model_out = tmp_path / "model.json"
        rc = main(["learn", "--data", data, "--schema", schema, "--criterion", "mdl",
                   "--out", str(out), "--model-out", str(model_out)])
        assert rc == 0
        reported = json.loads((tmp_path / "learned.json").read_text())
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_out), "--data", data,
                   "--criterion", "mdl"])
        assert rc == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["description_length"]) == reported["description_length"]
        assert float(lines["log_likelihood"]) == reported["log_likelihood"]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), block_cells=st.sampled_from([7, 40, BLOCK_CELLS]))
    def test_streamed_eval_prints_learn_description_length(self, eval_dir, seed, block_cells):
        """eval's reader blocks are not learn's likelihood blocks; the
        per-row totals and their one sum are the same."""
        ds, _ = random_mixed_case(np.random.default_rng(seed))
        data, schema, model = (str(eval_dir / name) for name in ("d.csv", "s.json", "m.json"))
        write_csv_dataset(data, ds)
        write_schema(schema, ds.schema)
        outputs = []
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            for argv in (
                ["learn", "--data", data, "--schema", schema, "--criterion", "mdl",
                 "--model-out", model],
                ["eval", "--model", model, "--data", data, "--criterion", "mdl"],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                assume(code == 0)  # a degenerate column stops learn
                outputs.append(out.getvalue().splitlines())
        learned, evaluated = ([line for line in lines if line.startswith(("description_length=",
                               "log_likelihood="))] for lines in outputs)
        assert learned == evaluated and len(learned) == 2

    def test_ranking_matches_library_description_length(self, tmp_path, star_files, capsys):
        data, schema_path, ds = star_files
        structures = [
            Forest.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
            Forest.from_edges(4, [(0, 3), (1, 2)]),
        ]
        reported = []
        for k, forest in enumerate(structures):
            model = fit(ds, forest)
            path = tmp_path / f"m{k}.json"
            path.write_text(json.dumps(model.to_json_dict()) + "\n")
            capsys.readouterr()
            rc = main(["eval", "--model", str(path), "--data", data,
                       "--criterion", "mdl"])
            assert rc == 0
            lines = dict(
                line.split("=", 1)
                for line in capsys.readouterr().out.strip().splitlines()
            )
            reported.append(float(lines["description_length"]))
            assert reported[-1] == description_length(model, ds, Criterion.mdl())
        assert reported[0] < reported[1]  # the true star beats the wrong structure

    @pytest.mark.parametrize("dn", ["inf", "nan"])
    def test_non_finite_dn_exits_2_naming_it(self, tmp_path, chain_model_file, capsys, dn):
        model_path, _, ds = chain_model_file
        data = tmp_path / "d.csv"
        write_csv_dataset(data, ds)
        rc = main(["eval", "--model", model_path, "--data", str(data),
                   "--criterion", "custom", "--dn", dn])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d_n" in err and err.count("\n") == 1

    def test_unseen_category_reports_minus_infinity_exit_0(self, tmp_path, capsys):
        schema = discrete_schema(2)
        train = dataset_from_columns(schema, [0, 0, 0])
        model = fit(train, Forest.from_edges(1, []))
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(model.to_json_dict()) + "\n")
        held = tmp_path / "held.csv"
        write_csv_dataset(held, dataset_from_columns(schema, [0, 1]))
        rc = main(["eval", "--model", str(model_path), "--data", str(held)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "log_likelihood=-inf" in out
        assert "description_length=inf" in out


class TestDataFromAPipe:
    """--data may be a pipe, which can be read only once and has no
    length to count: learn, score and eval give the bytes they give for
    a regular file."""

    @staticmethod
    def commands(tmp_path, data, schema, model, tag):
        """The argv of learn, score and eval on data; learn's files are
        named after tag."""
        return {
            "learn": ["learn", "--data", data, "--schema", schema, "--criterion", "mdl",
                      "--format", "both", "--out", str(tmp_path / f"{tag}-forest"),
                      "--model-out", str(tmp_path / f"{tag}-model.json")],
            "score": ["score", "--data", data, "--schema", schema, "--format", "json"],
            "eval": ["eval", "--model", model, "--data", data, "--criterion", "mdl"],
        }

    @pytest.mark.parametrize("block_cells", [64, BLOCK_CELLS])
    def test_same_bytes_as_a_regular_file(self, tmp_path, block_cells):
        rng = np.random.default_rng(12)
        n = 3000
        d = rng.integers(0, 3, n)
        ds = dataset_from_columns(
            mixed_schema("Dggd"), d, d + rng.standard_normal(n), rng.standard_normal(n),
            rng.integers(0, 2, n),
        )
        data, schema = tmp_path / "d.csv", str(tmp_path / "s.json")
        write_csv_dataset(data, ds)
        write_schema(schema, ds.schema)
        text = data.read_bytes()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        model = str(tmp_path / "file-model.json")

        def run(argv, source):
            """main's exit code and stdout, with the CSV written into the
            pipe by a thread when source is the pipe."""
            feeder = None
            if source == fifo:
                def feed():
                    with open(fifo, "wb") as pipe:
                        pipe.write(text)

                feeder = threading.Thread(target=feed, daemon=True)
                feeder.start()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if feeder is not None:
                feeder.join(timeout=60)
                assert not feeder.is_alive()
            return code, out.getvalue()

        results = {}
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            for tag, source in (("file", data), ("pipe", fifo)):
                for command, argv in self.commands(tmp_path, str(source), schema, model,
                                                   tag).items():
                    results[tag, command] = run(argv, source)
        for command in ("learn", "score", "eval"):
            assert results["file", command][0] == 0
            assert results["pipe", command] == results["file", command]
        for suffix in ("-forest.json", "-forest.dot", "-model.json"):
            assert (tmp_path / f"file{suffix}").read_bytes() == (
                tmp_path / f"pipe{suffix}"
            ).read_bytes()


class TestRoundTripsAndMisc:
    def test_csv_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(8)
        schema = mixed_schema("gdg")
        ds = dataset_from_columns(
            schema,
            rng.standard_normal(50) * 1e3,
            rng.integers(0, 2, 50),
            rng.standard_normal(50) * 1e-7,
        )
        path = tmp_path / "round.csv"
        write_csv_dataset(path, ds)
        back = read_csv_dataset(path, schema)
        for v in range(3):
            assert np.array_equal(back.column(v), ds.column(v))
        again = tmp_path / "round2.csv"
        write_csv_dataset(again, back)
        assert path.read_bytes() == again.read_bytes()

    def test_render_uses_17_significant_digits(self):
        schema = mixed_schema("g")
        ds = dataset_from_columns(schema, [1.0 / 3.0])
        assert "0.33333333333333331" in render_csv(ds)

    def test_header_mismatch_exits_2(self, tmp_path, star_files, capsys):
        data, _, ds = star_files
        other = tmp_path / "other.schema.json"
        write_schema(other, discrete_schema(2, 2, 2, 2, prefix="w"))
        rc = main(["learn", "--data", data, "--schema", str(other)])
        assert rc == 2
        assert "header" in capsys.readouterr().err

    def test_schema_round_trip(self, tmp_path):
        schema = mixed_schema("dgD")
        path = tmp_path / "s.json"
        write_schema(path, schema)
        assert read_schema(path) == schema

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "dendrofit" in capsys.readouterr().out

    def test_the_subcommands_are_the_four_steps(self, capsys):
        [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
        assert list(sub.choices) == ["learn", "score", "sample", "eval"] == list(cli._HANDLERS)
        with pytest.raises(SystemExit) as exc:
            main(["oracle-forest", "--scores", "x"])
        assert exc.value.code == 2
        assert "invalid choice: 'oracle-forest'" in capsys.readouterr().err


# names csv.writer and json.dumps must escape, and the text the forest and
# score JSON splice their lists in at
NAME_CHARS = 'ab ,"\\\r\né日'
NAMES = st.one_of(
    st.text(alphabet=st.sampled_from(NAME_CHARS), min_size=1, max_size=4),
    st.sampled_from(['"report": []', '"pairs": []', "report", "\\"]),
)
# I_n values: +inf (a copy), 0, -1e-10 (clamped to 0), and a few values
# so that scores tie
MI_VALUES = st.one_of(
    st.sampled_from([float("inf"), 0.0, -1e-10, 1.0, 2.5, 6.0]), st.floats(0.0, 40.0)
)
CRITERIA = [
    ["--criterion", "ml"], ["--criterion", "mdl"], ["--criterion", "aic"],
    ["--criterion", "custom", "--dn", "0"], ["--criterion", "custom", "--dn", "2"],
]


@st.composite
def injected_cases(draw):
    """A schema of 2-6 variables with awkward names, 24 rows of data that
    every forest over it can be fitted to, and an injected pair table:
    the pairs in canonical order and their I_n."""
    n_vars = draw(st.integers(2, 6))
    names = draw(st.lists(NAMES, min_size=n_vars, max_size=n_vars, unique=True))
    cards = draw(st.lists(st.sampled_from([0, 2, 3, 4]), min_size=n_vars, max_size=n_vars))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 24
    variables, columns = [], []
    for name, card in zip(names, cards):
        if card:
            variables.append(Variable(name, Discrete(tuple(f"c{k}" for k in range(card)))))
            columns.append(rng.permutation(np.arange(n) % card))
        else:
            variables.append(Variable(name, Gaussian()))
            columns.append(rng.standard_normal(n))
    ds = dataset_from_columns(VariableSchema(tuple(variables)), *columns)
    i, j = np.triu_indices(n_vars, 1)
    mi = np.array([draw(MI_VALUES) for _ in range(i.size)])
    return ds, (i, j, mi), draw(st.sampled_from(CRITERIA))


class TestColumnWiseReports:
    """learn's table and forest JSON, and score's CSV and JSON, rendered
    from arrays in blocks of pairs, against the one-object-per-edge
    references in oracle.py."""

    @settings(max_examples=60, deadline=None)
    @given(case=injected_cases(), rows=st.integers(1, 7))
    def test_learn_and_score_match_the_references_byte_for_byte(self, case, rows):
        ds, injected, flags = case
        schema = ds.schema
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr("dendrofit.scoring.pair_mi_table", lambda dataset, quad: injected)
            # blocks of 1-7 pairs, so that the widest cell, an inf I_n or a
            # tie can fall in any block of up to 15 pairs; the score CSV's
            # 7 columns take blocks of BLOCK_CELLS // 7 rows
            mp.setattr("dendrofit.cli.block_rows", lambda n_fields: rows)
            mp.setattr("dendrofit.dataio.BLOCK_CELLS", 7 * rows)
            data, schema_path, out = (str(Path(tmp) / f) for f in ("d.csv", "s.json", "f"))
            write_csv_dataset(data, ds)
            write_schema(schema_path, schema)
            files = ["--data", data, "--schema", schema_path, *flags]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["score", *files]) == 0
                score_csv = stdout.getvalue()
                assert main(["score", *files, "--format", "json", "--out", out]) == 0
                score_json = Path(out).read_bytes().decode("utf-8")
                stdout.seek(0)
                stdout.truncate()
                assert main(["learn", *files, "--format", "both", "--out", out]) == 0
            forest_json = Path(out + ".json").read_bytes().decode("utf-8")
            dot = Path(out + ".dot").read_bytes().decode("utf-8")

            criterion = criterion_of(flags)
            edges = score_all_pairs(ds, criterion)
        dn = criterion.dn(ds.n)
        assert score_csv == oracle.score_csv(schema, edges)
        assert score_json == json.dumps(
            {
                "criterion": {"kind": criterion.kind, "dn": dn},
                "n": ds.n,
                "variables": list(schema.names),
                "pairs": oracle.score_pairs(schema, edges),
            },
            indent=2,
        ) + "\n"

        decisions = oracle.greedy_decisions(edges, criterion.kind != "ml", schema.n_vars)
        fitted = fit(ds, accepted_forest(decisions, schema.n_vars))
        total = sum((d.edge.score for d in decisions if d.accepted), 0.0)
        report = io.StringIO()
        oracle.print_report(schema, decisions, report)
        assert stdout.getvalue() == (
            f"n={ds.n} variables={schema.n_vars} criterion={criterion.kind} dn={dn!r}\n"
            + report.getvalue()
            + f"edges_selected={len(fitted.forest.edges)} total_score={total!r}\n"
            f"log_likelihood={log_likelihood(fitted, ds)!r}\n"
            f"param_count={fitted.param_count}\n"
            f"description_length={description_length(fitted, ds, criterion)!r}\n"
        )
        doc = json.loads(forest_json)
        assert doc["edges"] == [list(e) for e in fitted.forest.sorted_edges]
        doc["report"] = oracle.edge_report(schema, decisions)
        assert forest_json == json.dumps(doc, indent=2) + "\n"
        assert dot == forest_dot(schema, [d.edge for d in decisions if d.accepted])

    def test_score_and_sample_csv_come_from_iter_csv_text(self, tmp_path, star_files):
        """dataio.iter_csv_text is the one CSV writer: score's table and
        sample's rows each take one call of it, and score's table keeps
        the bytes of the one-record-at-a-time reference."""
        data, schema, ds = star_files
        model, out = tmp_path / "model.json", tmp_path / "f.csv"
        model.write_text(json.dumps(fit(ds, Forest.from_edges(4, [(0, 1)])).to_json_dict()))
        with mock.patch.object(cli, "iter_csv_text", wraps=cli.iter_csv_text) as spy:
            assert main(["score", "--data", data, "--schema", schema, "--out", str(out)]) == 0
            assert spy.call_count == 1
            score_csv = out.read_bytes().decode("utf-8")
            assert main(["sample", "--model", str(model), "--count", "5", "--out", str(out)]) == 0
            assert spy.call_count == 2
        assert score_csv == oracle.score_csv(ds.schema, score_all_pairs(ds, Criterion("ml")))

    def test_peak_does_not_grow_with_the_number_of_pairs(self):
        """Each report is made and written a block of pairs at a time, and
        no block is held beside the next: from 20,000 pairs to 200,000 the
        peak of rendering learn's table and JSON report and score's CSV
        and JSON grows by at most 256 KiB, where the added pairs' JSON
        report alone is about 45 MB of text."""
        names = [f"v{k}" for k in range(50)]
        rng = np.random.default_rng(8)

        def peak(count):
            i = rng.integers(0, 49, count)
            mi = rng.exponential(2.0, count)
            mi[rng.random(count) < 0.01] = math.inf
            penalty = rng.choice([0.0, 1.5, 4.5], count)
            pairs = PairScores(i, rng.integers(i + 1, 50), mi, penalty, mi - penalty)
            outcome = rng.integers(0, len(REASONS), count)
            doc = {"variables": names, "pairs": []}
            with open(os.devnull, "w", encoding="utf-8") as sink:
                tracemalloc.start()
                try:
                    sink.writelines(cli._report_table(names, pairs, outcome))
                    cli._write_json(sink, doc, "pairs", cli._report_json(names, pairs, outcome))
                    sink.writelines(cli._score_csv(names, pairs))
                    cli._write_json(sink, doc, "pairs", cli._score_json(names, pairs))
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # blocks of at most 1,024 cells, so that both counts span many blocks
        with mock.patch.object(dataio, "BLOCK_CELLS", 1024):
            peak(2_000)  # first-call allocations are not counted
            assert peak(200_000) - peak(20_000) <= 256 * 1024

    @pytest.mark.parametrize("report", ["learn-json", "score-json"])
    def test_json_report_holds_one_row_of_text(self, report):
        """The JSON reports are written a row at a time, never a block's
        rows joined: at the default BLOCK_CELLS, learn's forest-JSON
        report and score's JSON on all 19,900 pairs of 200 variables each
        peak under 768 KiB (about 1.4 and 1.5 MiB with each block of
        1,820 and 2,340 rows joined into one string)."""
        names = [f"v{k}" for k in range(200)]
        i, j = np.triu_indices(200, 1)
        rng = np.random.default_rng(8)
        mi = rng.exponential(2.0, i.size)
        mi[rng.random(i.size) < 0.01] = math.inf
        penalty = rng.choice([0.0, 1.5, 4.5], i.size)
        pairs = PairScores(i, j, mi, penalty, mi - penalty)
        outcome = rng.integers(0, len(REASONS), i.size)
        doc = {"variables": names, "pairs": []}
        if report == "learn-json":
            pieces = lambda: cli._report_json(names, pairs, outcome)  # noqa: E731
        else:
            pieces = lambda: cli._score_json(names, pairs)  # noqa: E731
        with open(os.devnull, "w", encoding="utf-8") as sink:
            cli._write_json(sink, doc, "pairs", pieces())  # first-call allocations
            tracemalloc.start()
            try:
                cli._write_json(sink, doc, "pairs", pieces())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 768 * 1024


def criterion_of(flags):
    """The Criterion the CLI makes of flags from CRITERIA."""
    dn = float(flags[3]) if len(flags) > 2 else None
    return RunConfig(command="score", criterion=flags[1], dn=dn).make_criterion()
