"""Column-wise CSV parse and render against their row-at-a-time
references, the block reader against the whole-file one, and DOT
quoting of awkward names."""

import contextlib
import csv
import io
import json
import math
import pickle
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendrofit import (
    Dataset,
    DendroidModel,
    Discrete,
    DiscreteMarginal,
    Forest,
    Gaussian,
    GaussianMarginal,
    ScoredEdge,
    Variable,
    VariableSchema,
    log_likelihood,
)
from dendrofit import core, dataio
from dendrofit.cli import main
from dendrofit.dataio import (
    csv_text,
    forest_dot,
    iter_csv_text,
    read_csv_dataset,
    render_csv,
    write_csv_dataset,
)
from dendrofit.errors import (
    ArityMismatch,
    DataFormatError,
    DendrofitError,
    NonFiniteValue,
    UnknownCategory,
)
from dendrofit.oracle import csv_record, read_csv_whole, render_csv_rows

from conftest import column_dtype

# labels and names that csv.writer has to quote, plus plain ones
CHARS = 'ab ,"\n\r\\é'
TEXT = st.text(alphabet=st.sampled_from(CHARS), max_size=4)
SPECIAL_FLOATS = [
    0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0,
]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def datasets(draw, max_vars=4, max_rows=30, text=TEXT):
    n_vars = draw(st.integers(1, max_vars))
    names = draw(st.lists(text.filter(bool), min_size=n_vars, max_size=n_vars, unique=True))
    n = draw(st.integers(1, max_rows))
    variables, columns = [], []
    for name in names:
        if draw(st.booleans()):
            labels = draw(st.lists(text, min_size=2, max_size=4, unique=True))
            variables.append(Variable(name, Discrete(tuple(labels))))
            col = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
            columns.append(np.asarray(col, dtype=np.int64))
        else:
            variables.append(Variable(name, Gaussian()))
            col = draw(st.lists(FLOATS, min_size=n, max_size=n))
            columns.append(np.asarray(col, dtype=np.float64))
    return Dataset(VariableSchema(tuple(variables)), tuple(columns))


def data_rows(dataset):
    """The dataset's cells as csv.reader reads them back from the reference
    rendering, without the header."""
    return list(csv.reader(io.StringIO(render_csv_rows(dataset), newline="")))[1:]


class TestRenderMatchesRowReference:
    @settings(max_examples=200, deadline=None)
    @given(dataset=datasets(), block_cells=st.integers(1, 40), data=st.data())
    def test_blocks_join_to_the_reference(self, dataset, block_cells, data):
        expected = render_csv_rows(dataset)
        assert render_csv(dataset) == expected
        cuts = sorted(data.draw(st.lists(st.integers(0, dataset.n), max_size=4)))
        bounds = list(zip([0, *cuts], [*cuts, dataset.n]))
        parts = [[col[a:b] for col in dataset.columns] for a, b in bounds]
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            assert render_csv(dataset) == expected
            assert "".join(iter_csv_text(dataset.schema, parts)) == expected

    @pytest.mark.parametrize("labels", [("", "x"), ("x", ""), ("", ",")])
    def test_lone_empty_label_reads_back(self, labels):
        schema = VariableSchema((Variable("v", Discrete(labels)),))
        ds = Dataset(schema, (np.array([0, 1, 0], dtype=np.int64),))
        text = render_csv(ds)
        assert text == render_csv_rows(ds)
        assert '\n""\n' in text  # a blank line would be no record at all
        back = core.validate_dataset(schema, data_rows(ds))
        assert back.column(0).tolist() == [0, 1, 0]

    def test_blocks_hold_whole_rows_of_bounded_cells(self):
        schema = VariableSchema(
            (Variable("d", Discrete(("a", "b"))), Variable("g", Gaussian()))
        )
        ds = Dataset(
            schema, (np.arange(10, dtype=np.int64) % 2, np.arange(10, dtype=np.float64))
        )
        with mock.patch.object(dataio, "BLOCK_CELLS", 6):
            header, *blocks = iter_csv_text(schema, [ds.columns])
        assert header == "d,g\n"
        assert [block.count("\n") for block in blocks] == [3, 3, 3, 1]

    @settings(max_examples=100, deadline=None)
    @given(dataset=datasets(text=st.text(alphabet=st.sampled_from(CHARS), max_size=4)))
    def test_rendering_reads_back_exactly(self, dataset):
        back = core.validate_dataset(dataset.schema, data_rows(dataset))
        for got, want in zip(back.columns, dataset.columns):
            assert got.tobytes() == want.tobytes()  # keeps the sign of -0.0

    def test_carriage_return_reads_back(self):
        schema = VariableSchema(
            (Variable("v", Discrete(("a\rb", "c"))), Variable("g", Gaussian()))
        )
        ds = Dataset(schema, (np.array([0, 1], dtype=np.int64), np.zeros(2)))
        assert core.validate_dataset(schema, data_rows(ds)).column(0).tolist() == [0, 1]


def records(chars):
    return st.lists(
        st.lists(st.text(alphabet=st.sampled_from(chars)), min_size=1, max_size=4), max_size=4
    )


class TestCsvText:
    @settings(max_examples=200, deadline=None)
    @given(rows=records(CHARS))
    def test_fields_are_quoted_as_from_python_3_13(self, rows):
        assert csv_text(rows) == "".join(map(csv_record, rows))
        back = list(csv.reader(io.StringIO(csv_text(rows), newline="")))
        assert back == [list(row) for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(rows=records(CHARS.replace("\r", "")))
    def test_fields_without_carriage_return_keep_their_bytes(self, rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert csv_text(rows) == buf.getvalue()


def real_texts(cells, chunk):
    """dataio's texts of the float64 cells, chunk cells at a time."""
    with mock.patch.object(dataio, "REAL_CHUNK", chunk):
        return list(dataio._real_texts(np.asarray(cells, dtype=np.float64)))


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def below_power(n):
    """The largest float64 below 10**n."""
    power = Fraction(10) ** n
    v = float(power)
    return v if Fraction(v) < power else float(np.nextafter(v, 0.0))


def carries(v):
    """Whether v's 17-digit rounding is the next power of ten."""
    return "{:.16e}".format(v).startswith("1.0000000000000000e")


# bounds of the fixed notation that "%.17g" writes and the exact route takes
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e-4, 1e17]
POWERS = [float(Fraction(10) ** n) for n in range(-5, 19)]
CARRIES = [v for v in map(below_power, range(-323, 309)) if carries(v)]

FINITE_BITS = st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern
    # sign, an exponent of about 1e-4 to 1e17 (2**-13 to 2**57) and any fraction
    st.tuples(st.integers(0, 1), st.integers(1010, 1080), st.integers(0, 2**52 - 1)).map(
        lambda f: f[0] << 63 | f[1] << 52 | f[2]
    ),
).map(lambda bits: float(np.uint64(bits).view(np.float64))).filter(math.isfinite)


@st.composite
def ties(draw):
    """A value whose 17 significant digits are followed by exactly 5: an
    odd q / 2**(k + 1) with |v| * 10**k in [1e16, 1e17), so that
    q * 5**k / 2 has a fraction of one half (odd q / 4 in [1e15, 2.25e15)
    for k = 1)."""
    k = draw(st.integers(1, 20))
    low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
    q = draw(st.integers(low // 2, (high - 1) // 2)) * 2 + 1
    assume(low <= q < high)
    return draw(st.sampled_from([1, -1])) * q / 2 ** (k + 1)


class TestRealTextsMatchFormat:
    """The Gaussian cell formatter against "{:.17g}".format, with chunk
    edges anywhere."""

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(FINITE_BITS, max_size=60), chunk=st.integers(1, 40))
    def test_finite_values(self, cells, chunk):
        assert real_texts(cells, chunk) == ["{:.17g}".format(v) for v in cells]

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(ties(), min_size=1, max_size=40), chunk=st.integers(1, 40))
    def test_ties_round_half_to_even(self, cells, chunk):
        assert real_texts(cells, chunk) == ["{:.17g}".format(v) for v in cells]

    @pytest.mark.parametrize("chunk", [1, 7, 40, dataio.REAL_CHUNK])
    def test_zeros_subnormals_range_ends_powers_and_carries(self, chunk):
        cells = with_neighbours(EDGES + POWERS + CARRIES)
        cells = np.concatenate([cells, -cells])
        assert real_texts(cells, chunk) == ["{:.17g}".format(v) for v in cells.tolist()]

    def test_carries_lie_outside_the_exact_range(self):
        # a 17-digit rounding that carries to the next power of ten takes
        # a float64 within 5e-18 of it, relatively: some lie below 1e-4 or
        # at 1e17 and above, none in between, where the float64 below a
        # power of ten is the only one that could
        assert below_power(-14) in CARRIES and below_power(98) in CARRIES
        assert not any(1e-4 <= v < 1e17 for v in CARRIES)
        assert not any(carries(below_power(n)) for n in range(-3, 18))

    def test_peak_is_set_by_the_chunk_not_the_block(self):
        """A block's Gaussian cells are formatted REAL_CHUNK at a time:
        from a block of the default BLOCK_CELLS to one of 65,536 cells, the
        formatter's peak above the texts it returns does not grow. A
        formatter of whole blocks would hold about 350 bytes more a cell."""
        rng = np.random.default_rng(9)

        def above_texts(cells):
            x = rng.standard_normal(cells)
            list(dataio._real_texts(x[:10]))  # first-call allocations are not counted
            tracemalloc.start()
            try:
                texts = list(dataio._real_texts(x))
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(texts) == cells
            return peak - held

        assert above_texts(65_536) <= above_texts(dataio.BLOCK_CELLS) + 64 * 1024


BAD_CELLS = ["zz?", "", "nan", "-inf", "1e999", "x1", None, ["a"]]


@st.composite
def damaged_rows(draw):
    """Rows of a valid dataset with up to three bad cells or wrong-arity
    rows put in at random places."""
    dataset = draw(datasets(max_rows=12))
    rows = data_rows(dataset)
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["a"]
        elif rows[r]:
            i = draw(st.integers(0, len(rows[r]) - 1))
            rows[r] = rows[r][:i] + [draw(st.sampled_from(BAD_CELLS))] + rows[r][i + 1 :]
    return dataset.schema, rows


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as err:  # compared field by field below
        return "raised", err


def reference(schema, rows):
    """("ok", columns) of rows, or ("raised", (error type, row index)) of
    their first bad cell in row-major order, found cell by cell here
    without the package's parsers."""
    columns = [[] for _ in schema.variables]
    for r, row in enumerate(rows):
        if len(row) != schema.n_vars:
            return "raised", (ArityMismatch, r)
        for i, cell in enumerate(row):
            kind = schema.kind(i)
            if isinstance(kind, Discrete):
                if not (isinstance(cell, str) and cell in kind.labels):
                    return "raised", (UnknownCategory, r)
                columns[i].append(kind.labels.index(cell))
                continue
            try:
                value = float(cell)
            except (TypeError, ValueError, OverflowError):
                return "raised", (NonFiniteValue, r)
            if not math.isfinite(value):
                return "raised", (NonFiniteValue, r)
            columns[i].append(value)
    dtypes = [column_dtype(schema, i) for i in range(schema.n_vars)]
    return "ok", [np.array(col, dtype=dtype) for col, dtype in zip(columns, dtypes)]


class TestParseMatchesRowScan:
    @settings(max_examples=300, deadline=None)
    @given(case=damaged_rows())
    def test_same_columns_or_same_error(self, case):
        schema, rows = case
        ref_kind, ref = reference(schema, rows)
        if ref_kind == "raised":
            cls, row_index = ref
            with pytest.raises(DendrofitError) as exc:
                core.validate_dataset(schema, rows)
            assert type(exc.value) is cls
            assert exc.value.row_index == row_index
            assert str(exc.value).startswith(f"row {row_index}: ")
            with pytest.raises(DendrofitError) as parsed:
                core._parse_columns(schema, rows)
            assert type(parsed.value) is cls
            assert str(parsed.value) == str(exc.value)
        else:
            got = core.validate_dataset(schema, rows)
            for col, ref_col in zip(got.columns, ref):
                assert col.dtype == ref_col.dtype
                assert col.tobytes() == ref_col.tobytes()

    def test_rows_that_are_not_sequences_are_refused(self):
        schema = VariableSchema((Variable("g", Gaussian()),))
        with pytest.raises(TypeError, match="each row must be a sequence of cells"):
            core.validate_dataset(schema, [iter(["1.5"]), iter(["2"])])

    def test_first_bad_cell_in_row_major_order_wins(self):
        schema = VariableSchema(
            (Variable("g", Gaussian()), Variable("d", Discrete(("a", "b"))))
        )
        rows = [["1", "a"], ["2", "nope"], ["inf", "a"], ["3"]]
        with pytest.raises(UnknownCategory) as exc:
            core.validate_dataset(schema, rows)
        assert exc.value.row_index == 1

    def test_int_beyond_the_float_range_is_non_finite(self):
        schema = VariableSchema((Variable("g", Gaussian()),))
        with pytest.raises(NonFiniteValue) as exc:
            core.validate_dataset(schema, [["1.0"], [10**400]])
        assert exc.value.row_index == 1


# one more character than csv.reader's default field limit
OVERSIZED = "x" * (csv.field_size_limit() + 1)
FAULTS = ["none", "cell", "arity", "blank", "field-limit", "not-utf8", "header-only", "empty"]


@st.composite
def data_files(draw):
    """A schema and the bytes of a data file for it with at most one
    fault, in any of the ways a file can be written: with or without a
    byte order mark, with LF or CRLF line ends, and with blank lines at
    the end."""
    dataset = draw(datasets(max_rows=12))
    schema = dataset.schema
    rows = data_rows(dataset)
    fault = draw(st.sampled_from(FAULTS))
    r = draw(st.integers(0, len(rows) - 1))
    i = draw(st.integers(0, schema.n_vars - 1))
    if fault == "cell":
        bad = ["zz?"] if schema.is_discrete(i) else ["", "x1", "nan", "-inf", "1e999"]
        rows[r][i] = draw(st.sampled_from(bad))
    elif fault == "arity":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["a"]
    elif fault == "field-limit":
        rows[r][i] = OVERSIZED
    elif fault == "header-only":
        rows = []
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    records = [csv_record(row)[:-1] + eol for row in [list(schema.names), *rows]]
    if fault == "blank":
        records.insert(1 + r, eol)  # before the last record at the latest
    records += [eol] * draw(st.integers(0, 2))
    data = "".join(records).encode("utf-8")
    if fault == "not-utf8":
        at = draw(st.integers(len(records[0].encode("utf-8")), len(data)))
        data = data[:at] + b"\xff" + data[at:]
    if fault == "empty":
        data = b""
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return schema, data


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.csv"


# no character that csv.writer quotes or that ends a line, so that every
# line is plain unless a row is damaged on purpose
PLAIN_TEXT = st.text(alphabet=st.sampled_from("ab \t#é"), max_size=3)
# real cells at the edges of float syntax: read by only one of float()
# and numpy, read as a value that is not finite, or read the same by both
ODD_REALS = ["1_0", "١", " 1.5\xa0", "\x1c1", "inf", "nan", "1e999", "0x1p3", "", "-0", "4.9e-324"]


@st.composite
def plain_files(draw):
    """A schema and the bytes of a data file for it written without
    quotes, its real cells as "%.17g" or repr writes them, with up to
    three damaged rows and a blank line at the end or not."""
    dataset = draw(datasets(max_rows=12, text=PLAIN_TEXT))
    schema = dataset.schema
    rows = []
    for r in range(dataset.n):
        row = []
        for var, col in zip(schema.variables, dataset.columns):
            if isinstance(var.kind, Discrete):
                row.append(var.kind.labels[col[r]])
            else:
                row.append(draw(st.sampled_from(["%.17g", "%r"])) % col[r])
        rows.append(row)
    reals = [i for i in range(schema.n_vars) if not schema.is_discrete(i)]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        damage = draw(st.sampled_from(["real", "space", "short", "long"]))
        in_row = [i for i in reals if i < len(row)]
        if damage == "real" and in_row:
            row[draw(st.sampled_from(in_row))] = draw(st.sampled_from(ODD_REALS))
        elif damage == "space" and row:
            row[draw(st.integers(0, len(row) - 1))] += " "
        elif damage == "short" and row:
            row.pop()
        elif damage == "long":
            row.append("a")
    lines = [",".join(row) + "\n" for row in [schema.names, *rows]]
    lines += ["\n"] * draw(st.integers(0, 1))
    return schema, "".join(lines).encode("utf-8")


class TestBlockReaderMatchesWholeFile:
    @staticmethod
    def assert_same_outcome(data_path, schema, data, block_cells):
        data_path.write_bytes(data)
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            kind, got = outcome(read_csv_dataset, data_path, schema)
        ref_kind, ref = outcome(read_csv_whole, data_path, schema)
        assert kind == ref_kind
        if kind == "raised":
            assert type(got) is type(ref)
            assert str(got) == str(ref)
        else:
            for i, (col, ref_col) in enumerate(zip(got.columns, ref.columns)):
                assert col.dtype == ref_col.dtype == column_dtype(schema, i)
                assert col.tobytes() == ref_col.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=data_files(), block_cells=st.integers(1, 40))
    def test_same_columns_or_same_error(self, data_path, case, block_cells):
        self.assert_same_outcome(data_path, *case, block_cells)

    @settings(max_examples=300, deadline=None)
    @given(case=plain_files(), block_cells=st.integers(1, 40))
    def test_plain_files_same_columns_or_same_error(self, data_path, case, block_cells):
        self.assert_same_outcome(data_path, *case, block_cells)

    @pytest.mark.parametrize(
        "row",
        [f"a,{cell}" for cell in ODD_REALS]
        + [f"{cell},1" for cell in ["a ", " a", "ab", ""]]
        + [pytest.param("a,1." + OVERSIZED.replace("x", "0"), id="oversized-real")],
    )
    def test_plain_cell_read_by_one_parser_only(self, data_path, row):
        schema = VariableSchema(
            (Variable("d", Discrete(("a", "b"))), Variable("g", Gaussian()))
        )
        data = f"d,g\na,1\n{row}\nb,2\n".encode("utf-8")
        self.assert_same_outcome(data_path, schema, data, dataio.BLOCK_CELLS)

    def test_label_that_holds_nul_keeps_its_code(self, data_path):
        # numpy strings drop trailing NULs: "a\0" would read as "a"
        schema = VariableSchema((Variable("d", Discrete(("a\0", "a"))),))
        self.assert_same_outcome(data_path, schema, b"d\na\na\n", dataio.BLOCK_CELLS)
        assert read_csv_dataset(data_path, schema).column(0).tolist() == [1, 1]

    @pytest.mark.parametrize("block_cells", [4, dataio.BLOCK_CELLS])
    def test_bad_byte_after_plain_blocks_is_reported(self, data_path, block_cells):
        schema = VariableSchema(
            (Variable("d", Discrete(("a", "b"))), Variable("g", Gaussian()))
        )
        # the byte 0xff in a later chunk of the file, after about 10 KB
        text = "d,g\n" + "a,1\n" * 2500 + "\udcff,1\n" + "b,2\n" * 2500
        data = text.encode("utf-8", "surrogateescape")
        self.assert_same_outcome(data_path, schema, data, block_cells)
        with pytest.raises(DataFormatError, match="can't decode byte 0xff"):
            read_csv_dataset(data_path, schema)

    def test_plain_blocks_skip_the_record_parsers(self, data_path):
        schema = VariableSchema(
            (Variable("d", Discrete(("a", "b", "c"))), Variable("g", Gaussian()))
        )
        rng = np.random.default_rng(3)
        ds = Dataset(schema, (rng.integers(0, 3, 50), rng.standard_normal(50)))
        write_csv_dataset(data_path, ds)
        unused = mock.Mock(side_effect=AssertionError("not a plain block"))
        with mock.patch.object(dataio, "BLOCK_CELLS", 16), mock.patch.object(
            dataio, "_parse_columns", unused
        ):
            back = read_csv_dataset(data_path, schema)
        for col, ref_col in zip(back.columns, ds.columns):
            assert col.tobytes() == ref_col.tobytes()

    @pytest.mark.parametrize("block_cells", [1, 4, dataio.BLOCK_CELLS])
    @pytest.mark.parametrize(
        "tail, error",
        [
            (OVERSIZED + ",1\n", "field larger than field limit"),
            # a later chunk of the file, after about 10 KB of good rows
            ("a,1\n" * 2500 + "\udcff,1\n", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["csv-error", "not-utf8"],
    )
    def test_first_of_two_faults_in_file_order_is_reported(
        self, data_path, block_cells, tail, error
    ):
        schema = VariableSchema(
            (Variable("d", Discrete(("a", "b"))), Variable("g", Gaussian()))
        )
        # surrogateescape writes "\udcff" as the byte 0xff
        data_path.write_bytes(("d,g\na,1\nzz?,2\na,3\n" + tail).encode("utf-8", "surrogateescape"))
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            with pytest.raises(UnknownCategory) as exc:
                read_csv_dataset(data_path, schema)
        assert str(exc.value).startswith(f"{data_path} line 3: row 1: 'zz?' is not a category")
        # the whole-file reader reports the later fault instead
        with pytest.raises(DataFormatError, match=re.escape(error)):
            read_csv_whole(data_path, schema)


def lines_of(rows, eol="\n"):
    """The text of a header "d,g" and rows, each line ended by eol."""
    return "".join(",".join(row) + eol for row in [["d", "g"], *rows])


# 30 rows, every other one with a label that holds a newline
QUOTED_ROWS = [['"b\nc"' if r % 2 else "a", repr(r / 8)] for r in range(30)]


class TestColumnCapacity:
    """read_csv_dataset writes each block into columns of the first
    block's rows, doubles them when a block does not fit, and cuts them
    in place to the rows read: blank lines and quoted newlines size
    nothing."""

    SCHEMA = VariableSchema((Variable("d", Discrete(("a", "b\nc"))), Variable("g", Gaussian())))
    CASES = {
        # a quoted newline in every other record
        "quoted-newlines": lines_of(QUOTED_ROWS),
        # blank lines at the end are not read
        "blank-tail": lines_of(QUOTED_ROWS[::2]) + "\n" * 40,
        "no-last-newline": lines_of(QUOTED_ROWS[::2])[:-1],
        # records that end in a lone carriage return
        "carriage-returns": lines_of(QUOTED_ROWS[::2], "\r"),
        "crlf": lines_of(QUOTED_ROWS, "\r\n"),
    }

    @pytest.mark.parametrize("block_cells", [2, 14, dataio.BLOCK_CELLS])
    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_same_columns_as_the_whole_file(self, data_path, text, block_cells):
        data_path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            got = read_csv_dataset(data_path, self.SCHEMA)
        ref = read_csv_whole(data_path, self.SCHEMA)
        for i, (col, ref_col) in enumerate(zip(got.columns, ref.columns)):
            assert col.dtype == ref_col.dtype == column_dtype(self.SCHEMA, i)
            assert col.tobytes() == ref_col.tobytes()
            assert col.flags.owndata  # cut in place, not a view of the longer array

    def test_fill_columns_joins_the_blocks(self):
        rng = np.random.default_rng(2)
        # the second block outgrows twice the first; the others double or fit
        blocks = [(rng.integers(0, 9, k), rng.standard_normal(k)) for k in (1, 5, 3, 1, 4, 2)]
        columns = dataio.fill_columns(iter(blocks))
        for column, parts in zip(columns, zip(*blocks)):
            assert column.dtype == parts[0].dtype and column.flags.owndata
            assert column.tobytes() == np.concatenate(parts).tobytes()
        assert dataio.fill_columns(iter([])) == []


class TestReadOnce:
    """read_csv_dataset and eval open --data once: nothing is counted or
    read twice, so a pipe and a file take one route."""

    SCHEMA = TestColumnCapacity.SCHEMA

    def opens_of(self, path, call):
        """The number of times call() opens path."""
        real_open = open
        opened = []

        def spy(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        with mock.patch("builtins.open", spy):
            call()
        return len(opened)

    def test_reader_opens_the_data_once(self, data_path):
        data_path.write_bytes(TestColumnCapacity.CASES["blank-tail"].encode("utf-8"))
        assert self.opens_of(data_path, lambda: read_csv_dataset(data_path, self.SCHEMA)) == 1

    def test_eval_opens_the_data_once(self, data_path, tmp_path):
        data_path.write_bytes(TestColumnCapacity.CASES["blank-tail"].encode("utf-8"))
        model_path = tmp_path / "model.json"
        model = independent_model(self.SCHEMA)
        model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
        argv = ["eval", "--model", str(model_path), "--data", str(data_path)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert self.opens_of(data_path, lambda: main(argv)) == 1
        assert out.getvalue().startswith("log_likelihood=-")


def independent_model(schema):
    """A model of schema with no edge: uniform discrete marginals and
    standard normal Gaussian ones."""
    marginals = tuple(
        DiscreteMarginal(np.full(schema.cardinality(v), 1.0 / schema.cardinality(v)))
        if schema.is_discrete(v)
        else GaussianMarginal(0.0, 1.0)
        for v in range(schema.n_vars)
    )
    return DendroidModel.build(schema, Forest.from_edges(schema.n_vars, []), marginals, (), 1)


def run_main(argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestEvalReportsTheReadersErrors:
    """eval streams the reader's blocks, with no dataset: every fault of a
    data file gives the message and exit code that score (which reads the
    whole dataset first) gives, and nothing on stdout."""

    @settings(max_examples=150, deadline=None)
    @given(case=data_files(), block_cells=st.integers(1, 40))
    def test_same_error_as_the_reader(self, data_path, case, block_cells):
        schema, data = case
        data_path.write_bytes(data)
        model = independent_model(schema)
        model_path, schema_path = data_path.with_suffix(".model"), data_path.with_suffix(".schema")
        model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
        dataio.write_schema(schema_path, schema)
        with mock.patch.object(dataio, "BLOCK_CELLS", block_cells):
            code, out, err = run_main(
                ["eval", "--model", str(model_path), "--data", str(data_path)]
            )
            kind, ref = outcome(read_csv_whole, data_path, schema)
            if kind == "ok":
                assert (code, err) == (0, "")
                assert out.startswith(f"log_likelihood={log_likelihood(model, ref)!r}\n")
                return
            score = run_main(["score", "--data", str(data_path), "--schema", str(schema_path)])
        assert (code, out, err) == score
        assert code != 0 and err == f"error: {ref}\n"


class TestErrorsNamePhysicalLines:
    """A fault names the file line its record starts at, counted as the
    file's lines are split: a quoted line break and a header of two lines
    each add a line, on the csv.reader route and on the numpy one."""

    CASES = {
        "quoted-break": (
            ("a", "g"),
            'a,g\n"x\ny",1.0\nz,2.0\nz,abc\n',
            "line 5: row 2: 'abc' is not a real value for 'g'",
        ),
        # the data lines are plain: numpy's reader takes them until abc
        "two-line-header": (
            ("a\nb", "g"),
            '"a\nb",g\nx,1.0\nz,2.0\nz,abc\n',
            "line 5: row 2: 'abc' is not a real value for 'g'",
        ),
        "blank-after-break": (
            ("a", "g"),
            'a,g\n"x\ny",1.0\n\nz,2.0\n',
            "line 4: row 1: expected 2 cells, got 0",
        ),
    }

    @staticmethod
    def schema_of(names):
        labels = Discrete(("x", "x\ny", "z"))
        return VariableSchema((Variable(names[0], labels), Variable(names[1], Gaussian())))

    @pytest.mark.parametrize("case", CASES)
    def test_reader_names_the_line(self, data_path, case):
        names, text, message = self.CASES[case]
        data_path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DendrofitError) as exc:
            read_csv_dataset(data_path, self.schema_of(names))
        assert str(exc.value) == f"{data_path} {message}"

    @pytest.mark.parametrize("case", CASES)
    def test_eval_names_the_line(self, data_path, case):
        names, text, message = self.CASES[case]
        data_path.write_bytes(text.encode("utf-8"))
        model_path = data_path.with_suffix(".model")
        model = independent_model(self.schema_of(names))
        model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")
        code, out, err = run_main(["eval", "--model", str(model_path), "--data", str(data_path)])
        assert (code, out, err) == (2, "", f"error: {data_path} {message}\n")


class TestLabelTableBuiltOnce:
    """Each Discrete builds its label -> code table once, on first use:
    the csv.reader route reads every block of a file, and the row scan
    that names a bad cell, with that one table."""

    SCHEMA = VariableSchema(
        (
            Variable("a", Discrete(("x", "y", "z"))),
            Variable("g", Gaussian()),
            Variable("b", Discrete(tuple(f"L{k}" for k in range(12)))),
        )
    )

    @staticmethod
    def builds():
        """A spy on the function that builds a label table; its calls'
        first arguments are the Discretes whose tables were built."""
        table = Discrete.__dict__["_codes"]
        return mock.patch.object(table, "func", wraps=table.func)

    @staticmethod
    def fresh():
        """SCHEMA as a schema file gives it, with no table built."""
        schema = TestLabelTableBuiltOnce.SCHEMA
        return dataio.schema_from_jsonable(dataio.schema_to_jsonable(schema))

    def test_one_table_per_variable_on_every_route(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(
            self.SCHEMA,
            (rng.integers(0, 3, 40), rng.standard_normal(40), rng.integers(0, 12, 40)),
        )
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_csv_dataset(plain, ds)
        with open(plain, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(quoted, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
        bad = [*rows[:-1], [rows[-1][0], rows[-1][1], "L12"]]
        model = tmp_path / "model.json"
        model_doc = independent_model(self.SCHEMA).to_json_dict()
        model.write_text(json.dumps(model_doc), encoding="utf-8")
        discretes = 2

        # 4 rows a block, so 10 blocks go through csv.reader and _parse_columns
        with mock.patch.object(dataio, "BLOCK_CELLS", 12), mock.patch.object(
            dataio, "_parse_columns", wraps=dataio._parse_columns
        ) as parse:
            schema = self.fresh()
            with self.builds() as built:
                back = read_csv_dataset(quoted, schema)
                with pytest.raises(UnknownCategory, match="^row 39: 'L12'"):
                    core.validate_dataset(schema, bad[1:])
            assert built.call_count == discretes
            assert {id(call.args[0]) for call in built.call_args_list} == {
                id(var.kind) for var in schema.variables if isinstance(var.kind, Discrete)
            }
            assert parse.call_count == 10

            schema = self.fresh()
            with self.builds() as built:
                again = core.validate_dataset(schema, rows[1:])
                with pytest.raises(UnknownCategory, match="^row 39: 'L12'"):
                    core.validate_dataset(schema, bad[1:])
            assert built.call_count == discretes

            evals = []
            for path in (plain, quoted):
                with self.builds() as built:
                    evals.append(run_main(["eval", "--model", str(model), "--data", str(path)]))
                assert built.call_count == (0 if path == plain else discretes)
        assert evals[0] == evals[1] and evals[0][0] == 0
        for col, again_col, ref_col in zip(back.columns, again.columns, ds.columns):
            assert col.tobytes() == again_col.tobytes() == ref_col.tobytes()

    def test_a_built_table_leaves_equality_hashing_and_pickling_alone(self):
        built, fresh = self.fresh(), self.fresh()
        core.validate_dataset(built, [["z", "1.5", "L11"]])
        assert "_codes" in vars(built.kind(0)) and "_codes" in vars(built.kind(2))
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        for schema in (built, fresh):
            back = pickle.loads(pickle.dumps(schema))
            assert back == fresh and hash(back) == hash(fresh)
            assert back.kind(2)._codes == {f"L{k}": k for k in range(12)}


def test_read_peak_grows_by_two_arrays_of_eight_bytes_per_cell(tmp_path):
    """The reader holds no table of cell strings: from a small file to a
    large one, its peak grows by the finished columns and at most one more
    copy of them, 8 bytes per cell each."""
    schema = VariableSchema(
        tuple(Variable(f"d{k}", Discrete(("a", "b", "c"))) for k in range(2))
        + tuple(Variable(f"g{k}", Gaussian()) for k in range(2))
    )
    rng = np.random.default_rng(5)

    def peak(n):
        path = tmp_path / f"{n}.csv"
        columns = [rng.integers(0, 3, n), rng.integers(0, 3, n)]
        columns += [rng.standard_normal(n), rng.standard_normal(n)]
        write_csv_dataset(path, Dataset(schema, tuple(columns)))
        read_csv_dataset(path, schema)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            read_csv_dataset(path, schema)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # blocks of 256 rows: both files span many, so the cell strings of
    # one block weigh the same in both peaks
    with mock.patch.object(dataio, "BLOCK_CELLS", 1024):
        small, large = peak(2_000), peak(20_000)
    added_cells = (20_000 - 2_000) * schema.n_vars
    assert large - small <= 2 * 8 * added_cells + 64 * 1024


DOT_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"')


class TestDotQuoting:
    @pytest.mark.parametrize(
        "names", [("plain", "say \"hi\""), ('"', "a\\"), ('a\\"b', "x,y")]
    )
    def test_names_make_one_token_each_and_round_trip(self, names):
        schema = VariableSchema(tuple(Variable(name, Gaussian()) for name in names))
        edges = [ScoredEdge.from_mi(0, 1, 2.0)]
        dot = forest_dot(schema, edges)
        lines = dot.splitlines()
        node_lines, edge_line = lines[1:3], lines[3]
        decoded = []
        for line in node_lines:
            token = DOT_TOKEN.match(line.strip())
            assert token is not None
            assert line.strip()[token.end():].startswith(" [comment=")
            decoded.append(re.sub(r"\\(.)", r"\1", token.group()[1:-1]))
        assert tuple(decoded) == names
        tokens = DOT_TOKEN.findall(edge_line)
        assert [re.sub(r"\\(.)", r"\1", t[1:-1]) for t in tokens[:2]] == list(names)
        # nothing is left outside the quoted tokens but DOT syntax
        assert DOT_TOKEN.sub("T", edge_line).strip() == "T -- T [label=T];"
