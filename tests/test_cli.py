import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrofit import (
    Criterion,
    Discrete,
    Forest,
    Gaussian,
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
from dendrofit.forest import accepted_forest
from dendrofit.model import description_length, log_likelihood, sample
from dendrofit import oracle
from dendrofit.oracle import render_csv_rows
from dendrofit.scoring import score_all_pairs

from conftest import dataset_from_columns, discrete_schema, every_kind_model, mixed_schema


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
         ("schema", b"[" * 100_000 + b"]" * 100_000)],
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
        "entry, header, message",
        [({"name": 5, "kind": "gaussian"}, "5", "'name' must be a string"),
         ({"name": "d", "kind": "discrete", "labels": [1, 2]}, "d",
          "labels must be strings")],
        ids=["name", "label"],
    )
    def test_non_string_schema_name_or_label_exits_2_naming_it(
        self, tmp_path, capsys, entry, header, message
    ):
        schema_path = write_text(tmp_path / "s.json", json.dumps([entry]))
        data_path = write_text(tmp_path / "d.csv", f"{header}\n1\n2\n")
        rc = main(["learn", "--data", data_path, "--schema", schema_path])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {schema_path}: not a valid schema document: schema entry 0: "
            f"{message}\n"
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

    @pytest.mark.parametrize("power", [-332, 532])
    def test_gaussian_columns_at_extreme_scales_score_as_at_scale_one(
        self, tmp_path, capsys, power
    ):
        # at 2^-332 a product of two variances underflows, and at 2^532 a
        # variance overflows; I_n is a property of the scaled columns
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
        if power > 0:
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
        injected = np.zeros((4, 4))
        for (i, j), mi in table_i.items():
            injected[i, j] = mi
        monkeypatch.setattr(
            "dendrofit.scoring.estimate_all_mi", lambda dataset, quad: injected
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

    def test_missing_model_exits_2(self, tmp_path):
        rc = main(["sample", "--model", str(tmp_path / "no.json"), "--count", "5"])
        assert rc == 2

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

        monkeypatch.setattr("dendrofit.cli.sample", fail)
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
    "bad schema entry": lambda doc: doc["schema"][0].update(kind="ordinal"),
    # a bool among numbers, read as 1 or 0, would make a valid array
    "bool among class means": lambda doc: doc["edge_factors"][0].update(
        class_means=[True, 1.0]
    ),
    "bool in a discrete table": lambda doc: bool_in_table(every_kind_model().to_json_dict()),
    **{name: edit for name, (_, edit) in CONTRADICTIONS.items()},
}


def bool_in_table(doc):
    """doc with the zero cell of its (2, 3) table written as false."""
    table = doc["edge_factors"][3]["table"]
    assert table[0][1] == 0.0
    table[0][1] = False
    return doc


class TestEval:
    @pytest.mark.parametrize("command", ["eval", "sample"])
    @pytest.mark.parametrize("edit", BAD_MODELS.values(), ids=BAD_MODELS.keys())
    def test_bad_model_file_exits_2_naming_it(
        self, tmp_path, chain_model_file, capsys, command, edit
    ):
        model_path, _, ds = chain_model_file
        data = tmp_path / "d.csv"
        write_csv_dataset(data, ds)
        doc = json.loads(Path(model_path).read_text())
        edited = edit(doc)
        Path(model_path).write_text(json.dumps(doc if edited is None else edited))
        flags = ["--data", str(data)] if command == "eval" else ["--count", "5"]
        rc = main([command, "--model", model_path, *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1

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

    def test_hidden_oracle_subcommand(self, tmp_path, star_files, capsys):
        data, schema, _ = star_files
        scores = tmp_path / "scores.json"
        rc = main(["score", "--data", data, "--schema", schema,
                   "--format", "json", "--out", str(scores)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["oracle-forest", "--scores", str(scores), "--spanning"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edges"] == [[0, 1], [0, 2], [0, 3]]

    @pytest.mark.parametrize(
        "drop, key", [(["variables"], "variables"), (["pairs"], "pairs"),
                      (["pairs", 0, "mi"], "mi"), (["pairs", 2, "j"], "j")],
    )
    def test_malformed_scores_exit_2_naming_the_file(
        self, tmp_path, star_files, capsys, drop, key
    ):
        data, schema, _ = star_files
        scores = tmp_path / "scores.json"
        assert main(["score", "--data", data, "--schema", schema,
                     "--format", "json", "--out", str(scores)]) == 0
        doc = json.loads(scores.read_text())
        owner = doc
        for step in drop[:-1]:
            owner = owner[step]
        del owner[drop[-1]]
        scores.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["oracle-forest", "--scores", str(scores)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {scores}: not a valid score document: '{key}'\n"
        )

    def test_oracle_subcommand_not_advertised(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "oracle-forest" not in capsys.readouterr().out


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
    every forest over it can be fitted to, and an injected I_n table."""
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
    table = np.zeros((n_vars, n_vars))
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            table[i, j] = draw(MI_VALUES)
    return ds, table, draw(st.sampled_from(CRITERIA))


class TestColumnWiseReports:
    """learn's table and forest JSON, and score's CSV and JSON, rendered
    from arrays, against the one-object-per-edge references in oracle.py."""

    @settings(max_examples=60, deadline=None)
    @given(case=injected_cases())
    def test_learn_and_score_match_the_references_byte_for_byte(self, case):
        ds, table, flags = case
        schema = ds.schema
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr("dendrofit.scoring.estimate_all_mi", lambda dataset, quad: table)
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
        total = sum(d.edge.score for d in decisions if d.accepted)
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
        assert dot == forest_dot(schema, decisions)


def criterion_of(flags):
    """The Criterion the CLI makes of flags from CRITERIA."""
    dn = float(flags[3]) if len(flags) > 2 else None
    return RunConfig(command="score", criterion=flags[1], dn=dn).make_criterion()
