import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dendrofit import (
    Criterion,
    Discrete,
    Forest,
    Gaussian,
    Variable,
    VariableSchema,
    fit,
)
from dendrofit.cli import main
from dendrofit.dataio import (
    BLOCK_CELLS,
    read_csv_dataset,
    read_schema,
    render_csv,
    write_csv_dataset,
    write_schema,
)
from dendrofit.model import description_length, sample
from dendrofit.oracle import render_csv_rows

from conftest import dataset_from_columns, discrete_schema, mixed_schema


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


class TestEval:
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

    def test_oracle_subcommand_not_advertised(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "oracle-forest" not in capsys.readouterr().out
