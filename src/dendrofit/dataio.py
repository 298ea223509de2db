"""File formats: JSON schemas, CSV datasets, and DOT graph export.

The schema file is a JSON list of {"name", "kind": "discrete"|"gaussian",
"labels"?}. Each part of a JSON document, a schema entry or a model's
marginal or factor, is an object whose "kind" picks its dataclass from a
table; _part_from_json reads every field as its annotation asks. CSV
files carry a header row matching the schema names; discrete cells hold
labels, Gaussian cells decimal reals written with 17 significant digits
so a write/read round trip is lossless.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

from .core import (
    Dataset,
    Discrete,
    Gaussian,
    ScoredEdge,
    Variable,
    VariableSchema,
    _parse_columns,
    code_dtype,
)
from .errors import DataFormatError, DendrofitError, EmptyDataset, SchemaMismatch

PathLike = Union[str, Path]
T = TypeVar("T")


def csv_text(rows: Iterable[Sequence]) -> str:
    """The rows as CSV records, each ending in "\n", quoted as csv.writer
    quotes them. A field holding "\r" is quoted as well, as csv.writer
    does from Python 3.13 on; before it, a lone "\r" is written bare and
    csv.reader ends the record there. The bytes are the same on every
    Python version."""
    buf = io.StringIO()
    # "\r" in the line terminator makes csv.writer quote fields holding it
    writer = csv.writer(buf, lineterminator="\r\n")
    records = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        records.append(buf.getvalue()[:-2] + "\n")
    return "".join(records)


# -- JSON documents: schemas and the part reader ---------------------------------


def schema_to_jsonable(schema: VariableSchema) -> list[dict]:
    return [{"name": v.name, **_part_to_json(VARIABLE_KINDS, v.kind)} for v in schema.variables]


def schema_from_jsonable(obj) -> VariableSchema:
    """The schema of a schema_to_jsonable list. Each entry is read as a
    part of VARIABLE_KINDS plus its string "name", and any fault in it,
    including a Variable or Discrete rejection, is named by its index."""
    if not isinstance(obj, list):
        raise DataFormatError("expected a JSON list of variables")
    variables = []
    for k, entry in enumerate(obj):
        try:
            kind = _part_from_json(VARIABLE_KINDS, entry)
            variables.append(Variable(_read("str", "name", entry.get("name")), kind))
        except ValueError as err:
            raise DataFormatError(f"schema entry {k}: {err}") from err
    return VariableSchema(tuple(variables))


def load_json_document(path: PathLike, parse: Callable[[Any], T], what: str) -> T:
    """parse applied to the JSON document in the file at path. A file that
    is not UTF-8 JSON, nests too deeply to parse or holds an integer too
    long to convert, or a document that parse rejects with ValueError,
    KeyError, TypeError or a DendrofitError, raises one DataFormatError
    that names the path."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # integer digit limit
        except (ValueError, RecursionError) as err:
            raise DataFormatError(f"{path}: invalid JSON: {err}") from err
    try:
        return parse(doc)
    except (ValueError, KeyError, TypeError, DendrofitError) as err:
        raise DataFormatError(f"{path}: not a valid {what}: {err}") from err


# the "kind" of each schema entry
VARIABLE_KINDS = {"discrete": Discrete, "gaussian": Gaussian}

# what _read accepts for each annotation of a document field
_EXPECTED = {"int": "an integer", "float": "a finite real", "np.ndarray": "a list of finite reals",
             "str": "a string", "tuple[str, ...]": "a list of strings"}


def _read(annotation: str, name: str, value):
    """value as the field's annotation asks for it: an int, a finite real
    as float, a (nested) list of finite reals as a float64 array, a str,
    or a list of strs as a tuple. A bool is not a number here."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation == "int" and real and isinstance(value, int):
        return value
    # the comparison is exact, so a huge integer is refused, not overflowed
    if annotation == "float" and real and abs(value) <= sys.float_info.max:
        return float(value)
    if annotation == "str" and isinstance(value, str):
        return value
    if annotation == "tuple[str, ...]" and isinstance(value, list):
        if all(isinstance(x, str) for x in value):
            return tuple(value)
    if annotation == "np.ndarray" and isinstance(value, list):
        array = np.array(value)
        # np.array reads a bool among numbers as 0 or 1
        bools = any(isinstance(x, bool) for x in np.array(value, dtype=object).flat)
        if array.dtype.kind in "iuf" and np.isfinite(array).all() and not bools:
            return array.astype(np.float64)
    raise ValueError(f"{name!r} must be {_EXPECTED[annotation]}")


def _part_from_json(kinds: dict, obj):
    """The dataclass of obj's "kind" in kinds, built from its fields in
    obj, each read by _read as its annotation asks. obj must be an
    object whose "kind" is a string in kinds; a missing field is named
    as one of the wrong type."""
    if not isinstance(obj, dict):
        raise ValueError("expected an object with a 'kind'")
    kind = _read("str", "kind", obj.get("kind"))
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}, expected one of {list(kinds)}")
    cls = kinds[kind]
    return cls(**{f.name: _read(f.type, f.name, obj.get(f.name)) for f in fields(cls)})


def _part_to_json(kinds: dict, part) -> dict:
    """{"kind": part's kind in kinds, then each dataclass field in
    declaration order}, arrays as nested lists and tuples as lists."""
    doc = {"kind": next(kind for kind, cls in kinds.items() if type(part) is cls)}
    for f in fields(part):
        value = getattr(part, f.name)
        if isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def read_schema(path: PathLike) -> VariableSchema:
    return load_json_document(path, schema_from_jsonable, "schema document")


def write_schema(path: PathLike, schema: VariableSchema) -> None:
    Path(path).write_text(
        json.dumps(schema_to_jsonable(schema), indent=2) + "\n", encoding="utf-8"
    )


# -- CSV datasets ---------------------------------------------------------------


# cells per block of the CSV reader, the renderer and model.sample_blocks:
# bounds what is held at once whatever the width of a row
BLOCK_CELLS = 16384


def block_rows(n_vars: int) -> int:
    """Rows in a block of about BLOCK_CELLS cells, for rows of n_vars cells."""
    return max(1, BLOCK_CELLS // n_vars)


def read_csv_dataset(path: PathLike, schema: VariableSchema) -> Dataset:
    """Read a header-bearing CSV against a schema; errors carry file line
    numbers, as read_csv_blocks reports them. The file, or pipe, is read
    once: each block is written straight into columns that double as
    they fill (fill_columns), so the rows are held once, and no list of
    per-block arrays is joined."""
    columns = fill_columns(read_csv_blocks(path, schema))
    return Dataset(schema=schema, columns=tuple(columns))


def read_csv_blocks(path: PathLike, schema: VariableSchema) -> Iterator[tuple[np.ndarray, ...]]:
    """The data rows of a header-bearing CSV, in file order, in blocks of
    at most block_rows(schema.n_vars) rows, each one array per column:
    codes in core.code_dtype(card) for a discrete column of card
    categories (one byte a cell up to 256), float64 values for a Gaussian
    one.
    A leading UTF-8 byte order mark and blank lines at the end of the file
    are ignored; a blank line before the last record is an error, as is a
    file with no data rows, raised after the last block.

    Blocks of plain lines go to numpy's text reader; from the first block
    that it cannot take exactly (a quote, a CR, as in every CRLF file, or
    a blank line is enough), csv.reader parses the rest, each block by
    one core._parse_columns call, which reads the label table that each
    Discrete builds once. No table of cell strings is held, and the first
    fault in file order is reported, after the blocks before it are
    given; a byte that is not UTF-8 is found when its chunk of about 8 KB
    is decoded, so it is reported before a bad cell earlier in that
    chunk. A bad cell's error names the line its record starts at: lines
    are counted as the file's iterator splits them, so a quoted line
    break or a header of several lines adds to the count."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except (UnicodeDecodeError, csv.Error) as err:
            raise DataFormatError(f"{path}: {err}") from err
        if header is None:
            raise DataFormatError(f"{path}: empty file (missing header row)")
        if tuple(header) != schema.names:
            raise SchemaMismatch(
                f"{path}: header {header} does not match schema columns "
                f"{list(schema.names)}"
            )
        rows = 0
        for columns in _blocks(path, fh, reader.line_num, schema):
            rows += len(columns[0])
            yield columns
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")


def fill_columns(blocks: Iterable[Sequence[np.ndarray]]) -> list[np.ndarray]:
    """The columns of the blocks, each a sequence of one 1-D array per
    column, joined in order. They start at the first block's rows and
    double when a block does not fit, one column at a time, and are cut
    to the rows written at the end, in place. So the rows are held once,
    plus one block and, while a column doubles, its old copy. Empty when
    there is no block."""
    columns: list[np.ndarray] = []
    rows = 0
    for block in blocks:
        stop = rows + len(block[0])
        if not columns:
            columns = [np.empty(stop, dtype=part.dtype) for part in block]
        elif stop > len(columns[0]):
            size = max(stop, 2 * len(columns[0]))
            for k, column in enumerate(columns):
                columns[k] = np.empty(size, dtype=column.dtype)
                columns[k][:rows] = column[:rows]
        for column, part in zip(columns, block):
            column[rows:stop] = part
        rows = stop
    for column in columns:
        # no view of the column exists, so realloc may shrink it in place
        column.resize(rows, refcheck=False)
    return columns


def _blocks(
    path: PathLike, lines: Iterator[str], header_lines: int, schema: VariableSchema
) -> Iterator[Sequence[np.ndarray]]:
    """Each block's columns, of the data lines that follow the header's
    header_lines lines. Blocks of plain lines go to numpy's text reader;
    from the first block that it cannot take exactly, csv.reader parses
    the rest. A decode or CSV error is raised after the records before it
    are given, and a blank record before a later one is an arity fault at
    its row. A fault names the file line its record starts at, counted as
    the text file's iterator splits lines: a plain row is one line, and
    csv.reader's line_num counts a record's lines."""

    def parse(block: list, first: int, starts: list[int]) -> Sequence[np.ndarray]:
        """The block's columns; block[0] is row first of the file, and
        block[k] starts at line starts[k]."""
        try:
            return _parse_columns(schema, block, first)
        except DendrofitError as err:
            line = starts[err.row_index - first]
            raise type(err)(f"{path} line {line}: {err}") from err

    step = block_rows(schema.n_vars)
    first = 0
    head: list[str] = []  # the lines of the block that csv.reader starts at
    rest: Iterator[str] = lines
    plain = _plain_parser(schema)
    while plain is not None:
        head, rest = _next_lines(lines, step)
        columns = plain(head) if rest is lines else None
        if columns is None:
            break
        yield columns
        first += len(head)

    block: list = []
    starts: list[int] = []  # the line each record of block starts at
    blank = 0  # the line of the first blank record after the last given one
    fault = None
    before = header_lines + first  # the lines before csv.reader's first
    reader = csv.reader(itertools.chain(head, rest))
    end = before  # the last line of the records read
    try:
        for record in reader:
            start, end = end + 1, before + reader.line_num
            if not record:
                blank = blank or start
            elif blank:
                break
            else:
                block.append(record)
                starts.append(start)
                if len(block) == step:
                    yield parse(block, first, starts)
                    first += step
                    block, starts = [], []
        else:
            blank = 0  # blank records at the end of the file are dropped
    except (UnicodeDecodeError, csv.Error) as err:
        fault = err
    if blank:
        block.append([])  # its arity fault is raised unless an earlier one is
        starts.append(blank)
    if block:
        yield parse(block, first, starts)
    if fault is not None:
        raise DataFormatError(f"{path}: {fault}") from fault


def _next_lines(lines: Iterator[str], count: int) -> tuple[list[str], Iterator[str]]:
    """Up to count lines, and what follows them: lines itself, or, when
    decoding the next line failed, an iterator that raises that error."""
    taken: list[str] = []
    try:
        for line in lines:
            taken.append(line)
            if len(taken) == count:
                break
    except UnicodeDecodeError as err:
        return taken, _raising(err)
    return taken, lines


def _raising(err: Exception) -> Iterator[str]:
    raise err
    yield  # a generator, so err is raised where the lines run out


def _plain_parser(
    schema: VariableSchema,
) -> Optional[Callable[[list[str]], Optional[list[np.ndarray]]]]:
    """A parser of blocks of plain lines by numpy's text reader, or None
    when a label holds NUL, which numpy strings drop.

    A plain line holds no quote, carriage return or NUL, is not blank and
    is no longer than csv.reader's field limit, so it splits on "," into
    csv.reader's record. It holds none of U+001C to U+001F either, which
    numpy strips around a number and float() does not; otherwise numpy
    parses a subset of float()'s syntax, to the same bits. The parser
    gives the block's columns, or None for a block that is not plain,
    that numpy rejects, or that holds a cell that is not a label or not a
    finite real; such a block is left to csv.reader."""
    formats, labels = [], {}
    for i, var in enumerate(schema.variables):
        if isinstance(var.kind, Gaussian):
            formats.append((f"f{i}", np.float64))
            continue
        if any("\0" in label for label in var.kind.labels):
            return None
        names = np.array(var.kind.labels)
        order = np.argsort(names)
        labels[f"f{i}"] = (names[order], order.astype(code_dtype(names.size)))
        # a character more than the longest label, so that no longer cell
        # is cut down to a label
        formats.append((f"f{i}", f"U{names.dtype.itemsize // 4 + 1}"))
    dtype = np.dtype(formats)

    def parse(lines: list[str]) -> Optional[list[np.ndarray]]:
        text = "".join(lines)
        if (
            not text
            or any(c in text for c in '"\r\0\x1c\x1d\x1e\x1f')
            or text.startswith("\n")
            or "\n\n" in text
            or max(map(len, lines)) > csv.field_size_limit()
        ):
            return None
        del text  # so that the joined copy is not held while numpy parses
        try:
            table = np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            return None
        columns = []
        for name in dtype.names:
            cells = table[name]
            if name in labels:
                sorted_names, codes = labels[name]
                at = np.minimum(np.searchsorted(sorted_names, cells), len(codes) - 1)
                if not (sorted_names[at] == cells).all():
                    return None
                columns.append(codes[at])
            elif np.isfinite(cells).all():
                columns.append(np.array(cells, dtype=np.float64))
            else:
                return None
        return columns

    return parse


def write_csv_dataset(path: PathLike, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(iter_csv_text(dataset.schema, [dataset.columns]))


def render_csv(dataset: Dataset) -> str:
    """CSV text with labels for discrete cells and 17-significant-digit
    decimals for Gaussian cells."""
    return "".join(iter_csv_text(dataset.schema, [dataset.columns]))


def quoted_cells(texts: Sequence[str], row_width: int) -> list[str]:
    """Each text as csv_text writes it in a row of row_width cells. A
    row of one empty cell is written as "", so a lone text is written
    alone, and any other with an empty cell beside it."""
    pad, tail = ([], 1) if row_width == 1 else ([""], 2)
    return [csv_text([[text, *pad]])[:-tail] for text in texts]


def iter_csv_text(schema: VariableSchema, parts: Iterable[Sequence[np.ndarray]]) -> Iterator[str]:
    """The CSV text of the rows of parts, each a sequence of one array per
    column of schema, all of one length: the header line, then each part's
    rows in blocks of block_rows(schema.n_vars), formatted column by
    column by _records. A discrete column holds codes into its labels, a
    Gaussian one reals. The text depends on the rows, not on how parts
    split them. Every CSV the package writes comes from here: datasets
    (render_csv, write_csv_dataset), sample's rows and score's pair
    table, whose schema cli._score_csv makes."""
    yield csv_text([schema.names])
    labels = [
        quoted_cells(var.kind.labels, schema.n_vars) if isinstance(var.kind, Discrete) else None
        for var in schema.variables
    ]
    step = block_rows(schema.n_vars)
    for columns in parts:
        for start in range(0, len(columns[0]), step):
            yield _records(labels, [col[start : start + step] for col in columns])
        del columns  # so that the next part is not made beside this one


def _records(labels: Sequence[Optional[list[str]]], columns: Sequence[np.ndarray]) -> str:
    """The CSV records of the rows of columns. A discrete column's cells
    are its labels as quoted_cells writes them, labels[j]. The cells of
    the Gaussian columns, whose labels[j] is None, come from one iterator
    over their texts in row-major order, which each of those columns
    reads in turn as zip draws a row, left to right: the texts of one
    chunk of REAL_CHUNK cells are held at a time. zip stops at the first
    column to run out, so the others still hold their lists of cells
    until they are dropped, on return."""
    reals = [col for names, col in zip(labels, columns) if names is None]
    texts = _real_texts(np.stack(reals, axis=1).ravel()) if reals else None
    cells = [texts if names is None else map(names.__getitem__, col.tolist())
             for names, col in zip(labels, columns)]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


# Gaussian cells that _real_texts formats in one pass: its buffers take
# about 350 bytes a cell, so the chunk, not the block, bounds them
REAL_CHUNK = 2048

# the byte slot of one cell: the prefix "-0.000" at 1-6, the 17 digits
# at 7-23, a point at 27, digits 2-17 again at 28-43 and a comma at 44;
# the digit words start at multiples of 4
_SLOT = 48
_PREFIX, _FIRST, _POINT, _AGAIN, _COMMA = 1, 7, 27, 28, 44


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26
    significant bits, so a product of two halves is exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.lru_cache(maxsize=None)
def _real_tables() -> tuple[np.ndarray, ...]:
    """The tables of _real_texts, built on its first call: 10**k and its
    halves for k in 0..20, the ASCII of each 4-digit word as a
    little-endian uint32, each word's trailing zeros (4 for 0000), the
    byte slot's template, and one mask of the bytes to keep per
    (decimal exponent, trailing zeros, sign), with a last row that keeps
    the comma alone; each mask is a row of 12 words, which a gather
    copies faster than 48 bools."""
    powers = np.array([float(10**k) for k in range(21)])  # exact up to 10**22
    w = np.arange(10_000)
    # the first digit in the lowest byte, so first in memory
    words = sum((ord("0") + w // 10**i % 10) << 8 * (3 - i) for i in range(4)).astype("<u4")
    zeros = sum((w % 10**i == 0).astype(np.intp) for i in range(1, 5))
    template = np.zeros(_SLOT, dtype=np.uint8)
    template[_PREFIX : _PREFIX + 6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    template[_POINT], template[_COMMA] = ord("."), ord(",")
    masks = np.zeros((21 * 17 * 2 + 1, _SLOT), dtype=bool)
    masks[:, _COMMA] = True
    for exp in range(-4, 17):
        for tz in range(17):
            for neg in (0, 1):
                keep = masks[((exp + 4) * 17 + tz) * 2 + neg]
                keep[_PREFIX] = neg
                if exp >= 0:  # exp + 1 digits, then the fraction if it is not 0
                    keep[_FIRST : _FIRST + exp + 1] = True
                    fraction = max(0, 16 - exp - tz)
                    keep[_POINT] = fraction > 0
                    keep[_AGAIN + exp : _AGAIN + exp + fraction] = True
                else:  # "0." and -exp - 1 zeros, then the digits
                    keep[_PREFIX + 1 : _PREFIX + 2 - exp] = True
                    keep[_FIRST : _FIRST + 17 - tz] = True
    return (powers, *_split(powers), words, zeros, template, masks.view(np.uint8).view("<u4"))


def _real_texts(x: np.ndarray) -> Iterator[str]:
    """The texts "{:.17g}".format(v) of the cells of a float64 array,
    formatted REAL_CHUNK cells at a time as they are drawn."""
    for start in range(0, len(x), REAL_CHUNK):
        yield from _real_chunk(x[start : start + REAL_CHUNK])


def _real_chunk(x: np.ndarray) -> list[str]:
    """["{:.17g}".format(v) for v in x.tolist()], with the digits of each
    cell with 1e-4 <= |v| < 1e17 computed exactly by basic IEEE
    operations, which round alike on every CPU; there "%.17g" writes the
    fixed notation. Every other cell is formatted by "{:.17g}".format.

    With X = floor(log10|v|) and k = 16 - X in 0..20, 10**k is exact, and
    Dekker's product (no fused multiply-add) gives |v| * 10**k = p + e
    exactly. log10 only guesses X: it is moved until 10**16 <= p + e <
    10**17. The 17 digits are then floor(p + e), rounded half to even on
    the exact fraction. They never round up to 10**17: no float64 in the
    range lies within half a unit of the 17th digit below a power of ten.
    The digits go into fixed byte slots, and each cell's mask row keeps
    the bytes that "%.17g" writes."""
    powers, power_hi, power_lo, words, zeros, template, masks = _real_tables()
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    a_hi, a_lo = _split(a)
    k = 16 - np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)

    def product(at: Any) -> tuple[np.ndarray, np.ndarray]:
        """p and e with a * 10**k = p + e exactly, for the cells at."""
        b, b_hi, b_lo = powers[k[at]], power_hi[k[at]], power_lo[k[at]]
        p = a[at] * b
        e = a_lo[at] * b_lo - (((p - a_hi[at] * b_hi) - a_lo[at] * b_hi) - a_hi[at] * b_lo)
        return p, e

    p, e = product(slice(None))
    while True:  # k moves to the one exponent that gives 17 digits
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        moved = np.flatnonzero(low | high)
        if not moved.size:
            break
        k[moved] += np.where(low[moved], 1, -1)
        p[moved], e[moved] = product(moved)
    whole = np.floor(e)
    fraction = e - whole  # exact, as is every step below
    d = p.astype(np.int64) + whole.astype(np.int64)
    d += (fraction > 0.5) | ((fraction == 0.5) & (d % 2 == 1))

    head, tail = np.divmod(d, 10**8)
    lead, head = np.divmod(head, 10**8)
    w1, w2 = np.divmod(head, 10**4)
    w3, w4 = np.divmod(tail, 10**4)
    tz = zeros[w4]
    run = w4 == 0
    for w in (w3, w2, w1):
        tz += run * zeros[w]
        run &= w == 0
    buf = np.empty((len(x), _SLOT), dtype=np.uint8)
    buf[:] = template
    buf[:, _FIRST] = lead + ord("0")
    slots = buf.view("<u4")
    for at, w in enumerate((w1, w2, w3, w4)):
        slots[:, (_FIRST + 1) // 4 + at] = slots[:, _AGAIN // 4 + at] = words[w]
    row = ((20 - k) * 17 + tz) * 2 + np.signbit(x)  # X + 4 = 20 - k
    row[~exact] = len(masks) - 1
    keep = masks.take(row, axis=0).view(bool)
    # a boolean index makes no intp array of the kept positions, as
    # np.compress does (8 bytes for each of about 45k bytes kept)
    texts = buf.ravel()[keep.ravel()].tobytes().decode("ascii").split(",")
    texts.pop()  # after the last comma
    for at in np.flatnonzero(~exact).tolist():
        texts[at] = "{:.17g}".format(float(x[at]))
    return texts


# -- DOT export -------------------------------------------------------------------


def _dot_id(name: str) -> str:
    """A DOT double-quoted ID: backslashes and quotes are escaped, so any
    name makes one token."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def forest_dot(schema: VariableSchema, edges: Iterable[ScoredEdge]) -> str:
    """Graphviz text for the edges, in (i, j) order, labeled with the
    mutual information and net score rounded to 4 decimals."""
    lines = ["graph dendroid {"]
    for i in range(schema.n_vars):
        kind = "discrete" if schema.is_discrete(i) else "gaussian"
        lines.append(f'  {_dot_id(schema.name(i))} [comment="{kind}"];')
    for edge in sorted(edges, key=lambda e: (e.i, e.j)):
        lines.append(
            f"  {_dot_id(schema.name(edge.i))} -- {_dot_id(schema.name(edge.j))} "
            f'[label="I={edge.mi:.4f} J={edge.score:.4f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
