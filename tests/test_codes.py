"""Discrete codes in the narrowest unsigned dtype (``core.code_dtype``):
the reader, ``Dataset`` and ``sample`` hold them so, and every arithmetic
on codes casts them to intp first, since a uint8 product wraps at 256
under numpy 2's promotion rules (NEP 50) and numpy 1.24's value-based
casting alike."""

from unittest import mock

import numpy as np
import pytest

from dendrofit import (
    Dataset,
    Discrete,
    Forest,
    Gaussian,
    Variable,
    VariableSchema,
    dataio,
    fit,
    kernels,
    oracle,
    sample,
)
from dendrofit.core import code_dtype
from dendrofit.dataio import read_csv_dataset, write_csv_dataset

from conftest import discrete_schema


@pytest.mark.parametrize(
    "card, dtype",
    [
        (2, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (65_536, np.uint16),
        (65_537, np.uint32),
        (2**32 + 1, np.uint64),
    ],
)
def test_code_dtype_is_the_narrowest_that_holds_every_code(card, dtype):
    assert code_dtype(card) == np.dtype(dtype)
    assert np.iinfo(dtype).max >= card - 1


CARDS = (200, 300, 3)  # uint8, uint16, uint8
ROWS = 3_000


def wide_codes_case():
    """int64 codes of three discrete columns (K = 200, 300 and 3) that
    reach their last category, and a Gaussian column that depends on the
    first, as a Dataset's schema orders them."""
    rng = np.random.default_rng(27)
    codes = [rng.integers(0, card, ROWS) for card in CARDS]
    for column, card in zip(codes, CARDS):
        column[:2] = (0, card - 1)
    gauss = codes[0] / 50.0 + rng.standard_normal(ROWS)
    labels = [tuple(f"l{k}" for k in range(card)) for card in CARDS]
    return codes, gauss, labels


@pytest.fixture(scope="module")
def read_back(tmp_path_factory):
    """route -> the dataset read back from a CSV of wide_codes_case that
    goes by that route: "plain" through numpy's text reader, "csv" through
    csv.reader and core._parse_columns (every first cell is quoted)."""
    codes, gauss, labels = wide_codes_case()
    schema = VariableSchema(
        tuple(Variable(f"d{k}", Discrete(names)) for k, names in enumerate(labels))
        + (Variable("g", Gaussian()),)
    )
    root = tmp_path_factory.mktemp("codes")
    plain = root / "plain.csv"
    write_csv_dataset(plain, Dataset(schema, (*codes, gauss)))
    lines = plain.read_text(encoding="utf-8").splitlines(keepends=True)
    quoted = root / "quoted.csv"
    first_cells_quoted = ('"{}",{}'.format(*line.split(",", 1)) for line in lines[1:])
    quoted.write_text(lines[0] + "".join(first_cells_quoted), encoding="utf-8")
    read = {}
    for route, path in (("plain", plain), ("csv", quoted)):
        with mock.patch.object(dataio, "_parse_columns", wraps=dataio._parse_columns) as parse:
            read[route] = read_csv_dataset(path, schema)
        assert parse.called == (route == "csv")
    return read


@pytest.mark.parametrize("route", ["plain", "csv"])
def test_read_codes_are_narrow_and_equal(read_back, route):
    codes, gauss, _ = wide_codes_case()
    ds = read_back[route]
    assert [ds.column(k).dtype for k in range(3)] == [np.uint8, np.uint16, np.uint8]
    for k, column in enumerate(codes):
        assert np.array_equal(ds.column(k), column)
    assert ds.column(3).tobytes() == gauss.tobytes()


def reference_table(xi, xj, card_i, card_j):
    table = np.zeros((card_i, card_j), dtype=np.int64)
    np.add.at(table, (xi, xj), 1)
    return table


@pytest.mark.parametrize("route", ["plain", "csv"])
@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2), (2, 0)])
def test_joint_counts_equal_the_int64_reference(read_back, route, i, j):
    codes, _, _ = wide_codes_case()
    ds = read_back[route]
    got = kernels.joint_counts(ds.column(i), ds.column(j), CARDS[i], CARDS[j])
    want = kernels.joint_counts(codes[i], codes[j], CARDS[i], CARDS[j])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(got, reference_table(codes[i], codes[j], CARDS[i], CARDS[j]))


@pytest.mark.parametrize("route", ["plain", "csv"])
@pytest.mark.parametrize("k", range(3))
def test_class_stats_equal_the_int64_reference(read_back, route, k):
    codes, gauss, _ = wide_codes_case()
    ds = read_back[route]
    _, scaled, _, _ = kernels.scaled_rows([gauss], ROWS)
    got_members = kernels.class_members(ds.column(k), CARDS[k])
    want_members = kernels.class_members(codes[k], CARDS[k])
    got = (*got_members, *kernels.class_stats_rows(scaled, [0], ds.column(k), *got_members))
    want = (*want_members, *kernels.class_stats_rows(scaled, [0], codes[k], *want_members))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_product_of_codes_without_the_intp_cast_wraps():
    """The check above fails for joint_counts as it was before the cast:
    200 x 3 codes in uint8 wrap at 256."""
    codes, _, _ = wide_codes_case()
    xi, xj = (c.astype(np.uint8) for c in (codes[0], codes[2]))
    flat = xi * 3 + xj
    assert flat.dtype == np.uint8
    uncast = np.bincount(flat, minlength=600).reshape(200, 3)
    assert not np.array_equal(uncast, reference_table(codes[0], codes[2], 200, 3))
    got = kernels.joint_counts(xi, xj, 200, 3)
    assert np.array_equal(got, reference_table(codes[0], codes[2], 200, 3))


def test_dataset_narrows_int64_and_rejects_other_dtypes():
    schema = discrete_schema(200, 300)
    int64 = (np.array([0, 199, 7]), np.array([299, 0, 256]))
    ds = Dataset(schema, int64)
    assert [column.dtype for column in ds.columns] == [np.uint8, np.uint16]
    assert [column.tolist() for column in ds.columns] == [[0, 199, 7], [299, 0, 256]]
    assert all(not column.flags.writeable for column in ds.columns)
    narrow = Dataset(schema, ds.columns)
    assert all(a is b for a, b in zip(narrow.columns, ds.columns))  # no copy
    for bad in (np.int32, np.uint16, np.uint64, np.float64):
        with pytest.raises(ValueError, match="'v0' must be int64 or uint8"):
            Dataset(schema, (int64[0].astype(bad), int64[1]))
    with pytest.raises(ValueError, match="'v1' must be int64 or uint16"):
        Dataset(schema, (int64[0], int64[1].astype(np.uint8)))
    with pytest.raises(ValueError, match=r"outside \[0, 199\]"):
        Dataset(schema, (np.array([0, 200, 1]), int64[1]))


def test_sample_draws_narrow_codes_as_the_whole_column_sampler(read_back):
    """A model over the K = 200 and 300 columns draws their codes in
    uint8 and uint16, with the bits of oracle.sample_whole."""
    ds = read_back["plain"]
    model = fit(ds, Forest.from_edges(4, [(0, 1), (1, 2), (0, 3)]))
    drawn = sample(model, 2_000, 3)
    reference = oracle.sample_whole(model, 2_000, 3)
    for column, expected in zip(drawn.columns, reference.columns):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
    assert [drawn.column(k).dtype for k in range(3)] == [np.uint8, np.uint16, np.uint8]
    assert int(drawn.column(1).max()) > 255
