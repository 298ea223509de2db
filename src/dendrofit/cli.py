"""Command-line front end.

Subcommands: ``learn`` (structure + optional model), ``score`` (the full
pairwise I/J table), ``sample`` (synthetic rows from a model JSON), and
``eval`` (likelihood and description length of data under a model).

Exit codes: 0 success, 1 runtime/estimation error, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .core import Dataset, Discrete, Forest, Gaussian, Variable, VariableSchema
from .dataio import (
    block_rows,
    fill_columns,
    forest_dot,
    iter_csv_text,
    load_json_document,
    read_csv_blocks,
    read_csv_dataset,
    read_schema,
)
from .errors import DendrofitError, UsageError
from .estimators import QuadratureSpec
from .forest import ACCEPTED, REASONS, greedy_outcomes
from .model import (
    DRAW_BLOCKS,
    DendroidModel,
    code_length,
    fit,
    log_likelihood,
    row_log_likelihoods,
    sample_blocks,
)
from .scoring import _KINDS, Criterion, PairScores, pair_scores

FOREST_FORMAT = "dendrofit-forest"
FOREST_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: paths, criterion, quadrature, output options."""

    command: str
    data: Optional[str] = None
    schema: Optional[str] = None
    criterion: str = "ml"
    dn: Optional[float] = None
    quad_order: int = QuadratureSpec.order
    quad_tol: float = QuadratureSpec.tolerance
    fmt: Optional[str] = None
    out: Optional[str] = None
    model: Optional[str] = None
    model_out: Optional[str] = None
    seed: int = 0
    count: int = 0

    def make_criterion(self) -> Criterion:
        if self.criterion == "custom":
            if self.dn is None:
                raise UsageError("--criterion custom requires --dn")
            return Criterion.custom(self.dn)
        if self.dn is not None:
            if self.criterion == "ml":
                raise UsageError("--dn cannot be combined with --criterion ml")
            return Criterion.custom(self.dn)  # d_n override
        return Criterion(self.criterion)

    def make_quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(order=self.quad_order, tolerance=self.quad_tol)


def _write_json(out: TextIO, doc, key: Optional[str] = None, items: Iterable[str] = ()) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``out``, with
    the pieces of ``items``, the indented text of a list rendered
    elsewhere, in place of the empty list ``doc`` holds under its
    top-level ``key``. Each piece is written as it comes, so neither the
    document's nor the list's whole text is held."""
    text = json.dumps(doc, indent=2)
    if key is not None:
        # the first match is the key itself: a quote inside a string
        # value is escaped, so no value holds this text
        cut = text.index(f"{json.dumps(key)}: []") + len(json.dumps(key)) + 2
        out.write(text[:cut])
        out.writelines(items)
        text = text[cut + 2 :]
    out.write(text)
    out.write("\n")


def _blocks(pairs: PairScores, n_fields: int) -> Iterator[tuple[PairScores, slice]]:
    """Each slice ``part`` of block_rows(n_fields) consecutive pairs, with
    ``pairs.take(part)``: a report row has n_fields cells, so a block
    holds about BLOCK_CELLS cells whatever the number of pairs."""
    step = block_rows(n_fields)
    for start in range(0, len(pairs.i), step):
        part = slice(start, start + step)
        yield pairs.take(part), part


def _pair_rows(
    pairs: PairScores,
    fields: Sequence[str],
    template: str,
    columns: Callable[[PairScores, slice], Sequence[Iterable[str]]],
) -> Iterator[str]:
    """The rows of a report on pairs, one at a time: for each block of
    ``_blocks(pairs, len(fields))``, ``template % row`` of each row of the
    cell texts that ``columns(block, part)`` gives, one column per field.
    A block's cells are made when the rows before it have been taken, so
    one block's cells and one row's text are held at a time."""
    for block, part in _blocks(pairs, len(fields)):
        for row in zip(*columns(block, part)):
            yield template % row


def _json_list(
    fields: Sequence[str],
    pairs: PairScores,
    columns: Callable[[PairScores, slice], Sequence[Iterable[str]]],
) -> Iterator[str]:
    """The text ``json.dumps(indent=2)`` gives a list of objects that is
    the value of a top-level key, in pieces: one object per pair, with
    the given fields, whose cells ``columns`` gives as JSON text."""
    body = ",\n".join(f"      {json.dumps(field)}: %s" for field in fields)
    head = "[\n"
    for text in _pair_rows(pairs, fields, "    {\n" + body + "\n    }", columns):
        yield head
        yield text
        head = ",\n"
    yield "[]" if head == "[\n" else "\n  ]"


def _pair_cells(quoted: Sequence[str], pairs: PairScores) -> list[Iterable[str]]:
    """i, j, name_i, name_j, mi, penalty and score of each pair as the
    JSON reports write them: names from ``quoted``, reals as json.dumps
    writes each item of a list of floats."""
    i, j = pairs.i.tolist(), pairs.j.tolist()
    reals = (pairs.mi, pairs.penalty, pairs.score)
    return [
        map(str, i),
        map(str, j),
        [quoted[v] for v in i],
        [quoted[v] for v in j],
        *(json.dumps(c.tolist())[1:-1].split(", ") for c in reals),
    ]


_PAIR_FIELDS = ("i", "j", "name_i", "name_j", "mi", "penalty", "score")
_TABLE_FIELDS = ("i", "j", "pair", "I_n", "penalty", "J_n", "decision")
_ACCEPTED_JSON = ["true" if r is None else "false" for r in REASONS]
_REASON_JSON = [json.dumps(reason) for reason in REASONS]
_DECISION_TEXT = ["accepted" if r is None else f"rejected ({r})" for r in REASONS]


def _score_json(names: Sequence[str], pairs: PairScores) -> Iterator[str]:
    """The "pairs" list of ``score --format json``, in pieces."""
    quoted = [json.dumps(name) for name in names]
    return _json_list(_PAIR_FIELDS, pairs, lambda block, _: _pair_cells(quoted, block))


def _report_json(names: Sequence[str], ranked: PairScores, outcome: np.ndarray) -> Iterator[str]:
    """The forest JSON's "report" list, in pieces: one object per greedy step."""
    quoted = [json.dumps(name) for name in names]

    def columns(block: PairScores, part: slice) -> list[Iterable[str]]:
        codes = outcome[part].tolist()
        return _pair_cells(quoted, block) + [
            [_ACCEPTED_JSON[o] for o in codes],
            [_REASON_JSON[o] for o in codes],
        ]

    return _json_list(_PAIR_FIELDS + ("accepted", "reason"), ranked, columns)


def _report_table(names: Sequence[str], ranked: PairScores, outcome: np.ndarray) -> Iterator[str]:
    """The edge table learn prints, in pieces: one line per greedy step,
    columns left-aligned to their widest cell, two spaces apart. A first
    pass makes each block's cells and keeps the longest of each padded
    column, so the widths are the cells' own."""

    def columns(block: PairScores, part: slice) -> list[Iterable[str]]:
        i, j = block.i.tolist(), block.j.tolist()
        return [
            map(str, i),
            map(str, j),
            [f"({names[a]}, {names[b]})" for a, b in zip(i, j)],
            *(map("{:.4f}".format, c.tolist()) for c in (block.mi, block.penalty, block.score)),
            [_DECISION_TEXT[o] for o in outcome[part].tolist()],
        ]

    # the last column is not padded, so no line ends in spaces
    widths = list(map(len, _TABLE_FIELDS[:-1]))
    for block, part in _blocks(ranked, len(_TABLE_FIELDS)):
        widths = [max(w, *map(len, cells)) for w, cells in zip(widths, columns(block, part))]
    template = "".join(f"%-{w}s  " for w in widths) + "%s\n"
    yield template % _TABLE_FIELDS
    yield from _pair_rows(ranked, _TABLE_FIELDS, template, columns)


def _score_csv(names: Sequence[str], pairs: PairScores) -> Iterator[str]:
    """The score table as CSV, in pieces, by dataio.iter_csv_text: its
    columns i and j are Discrete over the vertex numbers' decimal text,
    name_i and name_j Discrete over the names, and the reals Gaussian."""
    vertex, name = Discrete(tuple(map(str, range(len(names))))), Discrete(tuple(names))
    kinds = (vertex, vertex, name, name, Gaussian(), Gaussian(), Gaussian())
    schema = VariableSchema(tuple(map(Variable, _PAIR_FIELDS, kinds)))
    return iter_csv_text(
        schema, [(pairs.i, pairs.j, pairs.i, pairs.j, pairs.mi, pairs.penalty, pairs.score)]
    )


def _artifact_paths(out: str, fmt: str) -> dict[str, Path]:
    """The file of each artifact: out, less a .json or .dot suffix, with
    the artifact's suffix."""
    base = out
    for suffix in (".json", ".dot"):
        if out.lower().endswith(suffix):
            base = out[: -len(suffix)]
            break
    paths = {}
    if fmt in ("json", "both"):
        paths["json"] = Path(base + ".json")
    if fmt in ("dot", "both"):
        paths["dot"] = Path(base + ".dot")
    return paths


def _output_files(config: RunConfig) -> dict[str, Path]:
    """The file of each output the run writes: "json", "dot" and "model"
    for learn, "out" for score and sample. Fails naming the first output
    flag whose path is empty or whose last component is empty, "." or
    "..", which names a directory and no file; then the first file that
    is a directory, whose parent or resolved parent (which ``_output``
    writes in) is not one, or that is the same file as one of the run's
    inputs or as an earlier output, which the run would overwrite. So a
    run fails before it reads data, prints or writes anything."""
    for flag, text in (("--out", config.out), ("--model-out", config.model_out)):
        if text == "":
            raise UsageError(f"{flag}: empty path")
        if text is not None and os.path.basename(text) in ("", ".", ".."):
            raise UsageError(f"{text}: cannot write: it names a directory")
    files = {}
    if config.out and config.command == "learn":
        files = _artifact_paths(config.out, config.fmt or "json")
    elif config.out:
        files["out"] = Path(config.out)
    if config.model_out:
        files["model"] = Path(config.model_out)
    inputs = {name: getattr(config, name) for name in ("data", "schema", "model")}
    seen = {
        os.path.realpath(path): f"it is the --{name} input"
        for name, path in inputs.items() if path is not None
    }
    for path in files.values():
        if path.is_dir():
            raise UsageError(f"{path}: cannot write: it is a directory")
        real = os.path.realpath(path)
        for parent in (path.parent, Path(real).parent):
            if not parent.is_dir():
                raise UsageError(f"{path}: cannot write: {parent} is not a directory")
        if real in seen:
            raise UsageError(f"{path}: cannot write: {seen[real]}")
        seen[real] = "another output goes to the same file"
    return files


@contextmanager
def _output(path: Optional[Path]) -> Iterator[TextIO]:
    """The text stream of an output of ``_output_files`` (stdout for None).
    The file path resolves to is replaced when the block ends by a new
    file made beside it as open makes one, but with the old file's mode;
    when the block raises, it is left as it was. A device or a FIFO
    (/dev/null, /dev/stdout), which cannot be replaced, is written in place."""
    if path is None:
        yield sys.stdout
        return
    mode = os.stat(path).st_mode if os.path.exists(path) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    real = os.path.realpath(path)
    for attempt in itertools.count():
        # a name of fixed length, so that any valid target name can be replaced
        temp = os.path.join(os.path.dirname(real), f".dendrofit-{os.getpid()}-{attempt}.tmp")
        try:
            fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8") as out:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            yield out
        os.replace(temp, real)
    except BaseException:
        os.unlink(temp)
        raise


def _scored_run(config: RunConfig) -> tuple[dict[str, Path], Criterion, Dataset, PairScores]:
    """The output files, criterion, dataset and pair scores of learn or
    score, checked in this order, so a run names its first fault and
    reads no data before its flags pass: outputs, criterion, quadrature,
    schema, data."""
    paths = _output_files(config)
    criterion = config.make_criterion()
    quad = config.make_quadrature()
    dataset = read_csv_dataset(config.data, read_schema(config.schema))
    return paths, criterion, dataset, pair_scores(dataset, criterion, quad)


def _json_head(criterion: Criterion, dataset: Dataset) -> dict:
    """The criterion, n and variables that the forest JSON and the score
    JSON both hold, in that order."""
    return {
        "criterion": {"kind": criterion.kind, "dn": criterion.dn(dataset.n)},
        "n": dataset.n,
        "variables": list(dataset.schema.names),
    }


def cmd_learn(config: RunConfig) -> int:
    paths, criterion, dataset, scores = _scored_run(config)
    schema = dataset.schema
    dn = criterion.dn(dataset.n)

    order, outcome = greedy_outcomes(scores.i, scores.j, scores.score, schema.n_vars)
    ranked = scores.take(order)
    accepted = ranked.take(outcome == ACCEPTED).edges()
    forest = Forest.from_edges(schema.n_vars, [(e.i, e.j) for e in accepted])

    fitted = fit(dataset, forest)
    ll = log_likelihood(fitted, dataset)
    dl = code_length(ll, fitted.param_count, dn)

    print(f"n={dataset.n} variables={schema.n_vars} criterion={criterion.kind} dn={dn!r}")
    sys.stdout.writelines(_report_table(schema.names, ranked, outcome))
    total = sum((e.score for e in accepted), 0.0)
    print(f"edges_selected={len(forest.edges)} total_score={total!r}")
    print(f"log_likelihood={ll!r}")
    print(f"param_count={fitted.param_count}")
    print(f"description_length={dl!r}")

    doc = {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        **_json_head(criterion, dataset),
        "edges": [list(e) for e in forest.sorted_edges],
        "report": [],
        "log_likelihood": ll,
        "param_count": fitted.param_count,
        "description_length": dl,
    }
    # every file is written before any is replaced, so a failure leaves
    # them all as they were
    with ExitStack() as stack:
        for name, path in paths.items():
            out = stack.enter_context(_output(path))
            if name == "json":
                _write_json(out, doc, "report", _report_json(schema.names, ranked, outcome))
            elif name == "dot":
                out.write(forest_dot(schema, accepted))
            else:
                _write_json(out, fitted.to_json_dict())
    return 0


def cmd_score(config: RunConfig) -> int:
    paths, criterion, dataset, scores = _scored_run(config)
    with _output(paths.get("out")) as out:
        if config.fmt == "json":
            doc = {**_json_head(criterion, dataset), "pairs": []}
            _write_json(out, doc, "pairs", _score_json(dataset.schema.names, scores))
        else:
            out.writelines(_score_csv(dataset.schema.names, scores))
    return 0


def cmd_sample(config: RunConfig) -> int:
    paths = _output_files(config)
    if config.count < 1:
        raise UsageError(f"--count must be a positive integer, got {config.count}")
    if config.seed < 0:
        raise UsageError(f"--seed must be a nonnegative integer, got {config.seed}")
    model = load_json_document(config.model, DendroidModel.from_json_dict, "model document")
    text = iter_csv_text(model.schema, sample_blocks(model, config.count, config.seed))
    with _output(paths.get("out")) as out:
        out.writelines(text)
    return 0


def cmd_eval(config: RunConfig) -> int:
    """The log-likelihood and description length of --data under --model,
    read once: the blocks go to ``row_log_likelihoods`` as they come, so
    no dataset is held, only one block and 8 bytes a row (16 while the
    totals double). The totals and their sum are ``log_likelihood``'s,
    so eval reproduces learn's description length bit for bit."""
    criterion = config.make_criterion()
    model = load_json_document(config.model, DendroidModel.from_json_dict, "model document")
    reader = read_csv_blocks(config.data, model.schema)
    # DRAW_BLOCKS of the reader's blocks joined, the rows of a block of
    # log_likelihood, so that eval makes as few calls per vertex as learn
    blocks = iter(lambda: fill_columns(itertools.islice(reader, DRAW_BLOCKS)), [])
    totals = row_log_likelihoods(model, blocks)
    ll = float(totals.sum())
    dn = criterion.dn(len(totals))
    dl = code_length(ll, model.param_count, dn)
    print(f"log_likelihood={ll!r}")
    print(f"param_count={model.param_count}")
    print(f"dn={dn!r}")
    print(f"description_length={dl!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrofit",
        description="Learn, evaluate, and sample forest-structured models "
        "of mixed discrete/Gaussian data.",
    )
    parser.add_argument("--version", action="version", version=f"dendrofit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument("--schema", required=True, help="JSON schema file")

    def add_criterion_flags(p):
        p.add_argument(
            "--criterion",
            choices=_KINDS,
            default="ml",
            help="scoring criterion (default: ml)",
        )
        p.add_argument(
            "--dn",
            type=float,
            default=None,
            help="penalty scale d_n; required for custom, overrides mdl/aic",
        )

    def add_quadrature_flags(p):
        p.add_argument(
            "--quad-order", type=int, default=QuadratureSpec.order,
            help="starting order q of the mixed-pair quadrature: trapezoidal step 2T/q, T = 8.31",
        )
        p.add_argument(
            "--quad-tol", type=float, default=QuadratureSpec.tolerance,
            help="relative tolerance for the order-doubling check",
        )

    learn = sub.add_parser("learn", help="learn a forest structure from data")
    add_data_flags(learn)
    add_criterion_flags(learn)
    add_quadrature_flags(learn)
    learn.add_argument(
        "--format", choices=("dot", "json", "both"), default="json", dest="fmt"
    )
    learn.add_argument("--out", help="artifact path (extension added per --format)")
    learn.add_argument("--model-out", help="also write the fitted model JSON here")

    score = sub.add_parser("score", help="emit the pairwise I/J score table")
    add_data_flags(score)
    add_criterion_flags(score)
    add_quadrature_flags(score)
    score.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    score.add_argument("--out", help="write the table here instead of stdout")

    smp = sub.add_parser("sample", help="draw synthetic rows from a model JSON")
    smp.add_argument("--model", required=True, help="model JSON (from learn --model-out)")
    smp.add_argument("--count", type=int, required=True, help="number of rows")
    smp.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")
    smp.add_argument("--out", help="write CSV here instead of stdout")

    ev = sub.add_parser("eval", help="evaluate data under a model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    add_criterion_flags(ev)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig fields that the subcommand's parser set; the rest
    keep their defaults."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


_HANDLERS = {
    "learn": cmd_learn,
    "score": cmd_score,
    "sample": cmd_sample,
    "eval": cmd_eval,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](_config_from_args(args))
    except FileNotFoundError as err:
        print(f"error: no such file: {err.filename}", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DendrofitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        detail = " ".join(str(err).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
