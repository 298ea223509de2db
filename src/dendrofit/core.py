"""Domain types shared by every module: variable schemas, datasets,
scored edges, and (rooted) forests.

Conventions used throughout the package:

* vertices are 0-based indices into the schema,
* discrete categories are dense 0-based indices fixed by schema label order,
* all information quantities are in nats,
* a missing parent in a rooted forest is encoded as ``None``.

All types here are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence, Union

import numpy as np

from .errors import (
    ArityMismatch,
    CyclicInput,
    EmptyDataset,
    NonFiniteValue,
    UnknownCategory,
)


@dataclass(frozen=True)
class Discrete:
    """A finite-valued variable with an ordered tuple of category labels.

    The cardinality is the number of labels; categories are encoded as the
    0-based position of their label. The table from each label to its
    code, ``_codes``, is built on first use and kept on the instance; it
    is not a field, so it takes no part in equality or hashing.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) < 2:
            raise ValueError(
                f"a discrete variable needs at least 2 categories, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate category labels: {list(self.labels)}")

    @property
    def cardinality(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def _codes(self) -> dict[str, int]:
        return {label: k for k, label in enumerate(self.labels)}


def code_dtype(card: int) -> np.dtype:
    """The dtype of the category indices of a discrete column of card
    categories: the narrowest unsigned integer that holds card - 1
    (uint8 up to 256 categories, uint16 up to 65,536, uint32 up to 2^32,
    uint64 above). Its arithmetic wraps at that width (NEP 50 keeps
    uint8 * int in uint8), so a product or sum of codes casts them to
    np.intp first; indexing and np.bincount take them as they are."""
    return np.dtype(np.min_scalar_type(card - 1))


@dataclass(frozen=True)
class Gaussian:
    """A real-valued variable modeled as a (univariate) normal."""


VariableKind = Union[Discrete, Gaussian]


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VariableKind

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable names must be nonempty")


@dataclass(frozen=True)
class VariableSchema:
    """Ordered list of named variables; defines the vertex set 0..N-1."""

    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("a schema needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def kind(self, i: int) -> VariableKind:
        return self.variables[i].kind

    def name(self, i: int) -> str:
        return self.variables[i].name

    def is_discrete(self, i: int) -> bool:
        return isinstance(self.variables[i].kind, Discrete)

    def cardinality(self, i: int) -> int:
        kind = self.variables[i].kind
        if not isinstance(kind, Discrete):
            raise ValueError(f"variable {self.name(i)!r} is not discrete")
        return kind.cardinality


@dataclass(frozen=True, eq=False)
class Dataset:
    """n rows of mixed values, stored column-wise.

    Discrete columns are category indices, given as int64 or in the
    column's ``code_dtype(card)`` and stored in the latter: an int64
    column is narrowed once, after its range check, so every consumer sees
    one dtype per cardinality. Gaussian columns are float64. Columns are
    read-only after construction.
    """

    schema: VariableSchema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.columns) != self.schema.n_vars:
            raise ValueError(
                f"expected {self.schema.n_vars} columns, got {len(self.columns)}"
            )
        for i, col in enumerate(self.columns):
            if col.ndim != 1:
                raise ValueError(f"column {self.schema.name(i)!r} is not 1-D")
        lengths = {col.shape[0] for col in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        if lengths == {0}:
            raise EmptyDataset("a dataset needs at least one row")
        columns = list(self.columns)
        for i, col in enumerate(columns):
            name = self.schema.name(i)
            if self.schema.is_discrete(i):
                card = self.schema.cardinality(i)
                codes = code_dtype(card)
                if col.dtype not in (np.int64, codes):
                    raise ValueError(f"discrete column {name!r} must be int64 or {codes}")
                if col.min() < 0 or col.max() >= card:
                    raise ValueError(
                        f"column {name!r} has category indices outside [0, {card - 1}]"
                    )
                col = columns[i] = col.astype(codes, copy=False)
            else:
                if col.dtype != np.float64:
                    raise ValueError(f"gaussian column {name!r} must be float64")
                if not np.isfinite(col).all():
                    raise NonFiniteValue(f"column {name!r} contains non-finite values")
            col.setflags(write=False)
        object.__setattr__(self, "columns", tuple(columns))

    @property
    def n(self) -> int:
        return self.columns[0].shape[0]

    def column(self, i: int) -> np.ndarray:
        return self.columns[i]


def validate_dataset(schema: VariableSchema, raw_rows: Sequence[Sequence]) -> Dataset:
    """Validate raw records against a schema and build a Dataset.

    Discrete cells must be category labels (mapped to indices by schema
    label order); Gaussian cells must be finite reals, or strings that
    parse as such. The rows go through one _parse_columns call, which
    names the first bad cell in row-major order.

    Raises
    ------
    EmptyDataset, ArityMismatch, UnknownCategory, NonFiniteValue
    """
    rows = list(raw_rows)
    if not rows:
        raise EmptyDataset("no data rows")
    return Dataset(schema=schema, columns=_parse_columns(schema, rows))


def _parse_columns(
    schema: VariableSchema, rows: list, first_row: int = 0
) -> tuple[np.ndarray, ...]:
    """Each column in one pass, discrete cells mapped by their variable's
    label table. When a row has the wrong arity or a cell does not parse
    to a category or a finite real, _scan_rows raises the first bad
    cell's error instead; rows[0] is row first_row."""
    n = len(rows)
    try:
        if set(map(len, rows)) == {schema.n_vars}:
            columns = []
            for var, cells in zip(schema.variables, zip(*rows)):
                kind = var.kind
                if isinstance(kind, Discrete):
                    codes = code_dtype(kind.cardinality)
                    columns.append(np.fromiter(map(kind._codes.__getitem__, cells), codes, n))
                else:
                    columns.append(np.fromiter(map(float, cells), np.float64, n))
                    if not np.isfinite(columns[-1]).all():
                        break
            else:
                return tuple(columns)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    _scan_rows(schema, rows, first_row)


def _scan_rows(schema: VariableSchema, rows: list, first_row: int = 0) -> NoReturn:
    """Raise the error of the first bad cell of rows, in row-major order,
    with its row index; rows[0] is row first_row. Reached only from
    _parse_columns, once it has failed on rows."""
    n_vars = schema.n_vars

    def row_error(cls: type, r: int, message: str) -> Exception:
        err = cls(f"row {r}: {message}")
        err.row_index = r  # lets file readers report the source line
        return err

    for r, row in enumerate(rows, first_row):
        cells = list(row)
        if len(cells) != n_vars:
            raise row_error(
                ArityMismatch, r, f"expected {n_vars} cells, got {len(cells)}"
            )
        for i, cell in enumerate(cells):
            kind = schema.kind(i)
            if isinstance(kind, Discrete):
                try:
                    kind._codes[cell]
                except (KeyError, TypeError):
                    raise row_error(
                        UnknownCategory,
                        r,
                        f"{cell!r} is not a category of {schema.name(i)!r} "
                        f"(labels: {list(kind.labels)})",
                    ) from None
            else:
                try:
                    value = float(cell)
                except (TypeError, ValueError):
                    raise row_error(
                        NonFiniteValue,
                        r,
                        f"{cell!r} is not a real value for {schema.name(i)!r}",
                    ) from None
                except OverflowError:
                    # a huge int; its repr may be too long to print
                    raise row_error(
                        NonFiniteValue,
                        r,
                        f"value out of the float range for {schema.name(i)!r}",
                    ) from None
                if not math.isfinite(value):
                    raise row_error(
                        NonFiniteValue,
                        r,
                        f"non-finite value {value!r} for {schema.name(i)!r}",
                    )
    # reached only by a row without len(), which _parse_columns rejects
    raise TypeError("each row must be a sequence of cells")


@dataclass(frozen=True)
class ScoredEdge:
    """A vertex pair with its estimated mutual information (sample-scaled,
    nats), penalty, and net score = mi - penalty."""

    i: int
    j: int
    mi: float
    penalty: float
    score: float

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got ({self.i}, {self.j})")
        if not (self.mi >= 0.0):
            raise ValueError(f"mi must be >= 0, got {self.mi}")
        if not (self.penalty >= 0.0):
            raise ValueError(f"penalty must be >= 0, got {self.penalty}")
        if self.score != self.mi - self.penalty:
            raise ValueError(
                f"score {self.score} != mi - penalty = {self.mi - self.penalty}"
            )

    @classmethod
    def from_mi(cls, i: int, j: int, mi: float, penalty: float = 0.0) -> "ScoredEdge":
        """Build an edge, clamping tiny negative mi rounding noise to 0."""
        if -1e-9 < mi < 0.0:
            mi = 0.0
        return cls(i=i, j=j, mi=mi, penalty=penalty, score=mi - penalty)


class UnionFind:
    """Disjoint sets over n vertices with path compression and union by
    rank."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass(frozen=True)
class Forest:
    """An acyclic undirected edge set over vertices 0..n_vertices-1."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("a forest needs at least one vertex")
        object.__setattr__(self, "edges", frozenset(self.edges))
        uf = UnionFind(self.n_vertices)
        for i, j in sorted(self.edges):
            if i == j:
                raise CyclicInput(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n_vertices):
                raise ValueError(f"edge ({i}, {j}) out of range or not normalized")
            if not uf.union(i, j):
                raise CyclicInput(f"edge ({i}, {j}) closes a loop")

    @classmethod
    def from_edges(cls, n_vertices: int, pairs: Sequence[tuple[int, int]]) -> "Forest":
        """Normalize unordered pairs to (min, max) and validate."""
        normalized = frozenset((min(i, j), max(i, j)) for i, j in pairs)
        return cls(n_vertices=n_vertices, edges=normalized)

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class RootedForest:
    """A parent map over 0..N-1; ``None`` marks a component root."""

    parents: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        n = len(self.parents)
        # a parent map is acyclic iff its (v, parent) pairs form a forest
        uf = UnionFind(n)
        for v, p in enumerate(self.parents):
            if p is None:
                continue
            if not 0 <= p < n:
                raise ValueError(f"parent {p} of vertex {v} out of range")
            if not uf.union(v, p):
                raise CyclicInput(f"parent map cycles through vertex {v}")

    @property
    def n_vertices(self) -> int:
        return len(self.parents)

    def undirected(self) -> Forest:
        pairs = [(v, p) for v, p in enumerate(self.parents) if p is not None]
        return Forest.from_edges(len(self.parents), pairs)

    def topological_order(self) -> list[int]:
        """Vertices ordered so every parent precedes its children: repeated
        ascending sweeps over the ids, each taking every vertex whose parent
        is already taken. Parents (None, 2, None, 0) give [0, 2, 3, 1].

        Roots join the first sweep; any other vertex joins its parent's
        sweep when it comes after the parent in id order, and the next
        sweep otherwise.
        """
        parents = self.parents
        sweep: list[Optional[int]] = [0 if p is None else None for p in parents]
        for v in range(len(parents)):
            path = []
            u = v
            while sweep[u] is None:
                path.append(u)
                u = parents[u]
            for w in reversed(path):
                p = parents[w]
                sweep[w] = sweep[p] + (p > w)
        return sorted(range(len(parents)), key=lambda v: (sweep[v], v))


def orient_forest(forest: Forest, schema: VariableSchema) -> RootedForest:
    """Pick one root per component and orient edges away from it.

    When a component contains discrete vertices the lowest-id discrete
    vertex becomes the root, so that mixed edges are oriented with the
    discrete endpoint as the parent wherever possible; otherwise the
    lowest-id vertex is the root. Deterministic given its input.
    """
    if forest.n_vertices != schema.n_vars:
        raise ValueError(
            f"forest has {forest.n_vertices} vertices but schema has {schema.n_vars}"
        )
    n = forest.n_vertices
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in forest.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)

    parents: list[Optional[int]] = [None] * n
    seen = [False] * n
    # the first root tried in a component is its lowest discrete vertex,
    # else its lowest vertex; in a tree the root fixes every parent
    for root in [v for v in range(n) if schema.is_discrete(v)] + list(range(n)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    parents[w] = v
                    stack.append(w)
    return RootedForest(parents=tuple(parents))
