"""The benchmark's workloads: why each exists, which layer it loads, and
its size. Generation itself is in ``generate.py``.

Every workload is learned with ``--criterion mdl`` (the paper's canonical
criterion) and sampled with ``--count`` equal to its row count, so
``sample`` writes a CSV of the input's shape.

The sizes are chosen so that one operation takes about 0.3-2 s on a
2-core machine and every operation gets at least about ten samples in a
run of the benchmark's length: on a shared machine one child's time
varies by about 10% from the next one's, so medians need that many.

This module uses only the standard library, so the benchmark's driving
process stays small: a child's peak RSS as reported by ``wait4`` includes
the peak of the process it was started from.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    rows: int
    discrete: int
    gaussian: int
    levels: int

    @property
    def columns(self) -> int:
        return self.discrete + self.gaussian


# name -> {"full": measured size, "tiny": self-test size}
SHAPES = {
    # tall: many rows, few columns (190 pairs), drawn from a planted random
    # tree. CSV parse and validation (dataio.read_csv_dataset,
    # core.validate_dataset) take most of learn and eval, and
    # dataio.render_csv most of sample; scoring is a minority. Loads dataio,
    # core and model.sample.
    "tall": {"full": Shape(25_000, 10, 10, 4), "tiny": Shape(300, 3, 3, 4)},
    # wide: few rows, many columns (4,950 pairs), drawn from a planted random
    # tree. Per-pair Python overhead in scoring and estimators dominates
    # learn, the cli prints one report line per pair, and
    # forest.kruskal_decisions sorts every pair; CSV I/O is small. Loads
    # scoring, estimators, forest and cli.
    "wide": {"full": Shape(2_000, 50, 50, 4), "tiny": Shape(200, 5, 5, 4)},
    # mixed-hard: a planted tree of near-copies of one 8-level class, with
    # each Gaussian hanging off one discrete column, its class means 6
    # standard deviations apart. Most of the 900 Gaussian/discrete pairs
    # keep means 3-6 sd apart, so the Gauss-Hermite order-doubling ladder
    # (estimators.mi_mixed, kernels.mixture_mi) must climb to order 256-512
    # on them; the other workloads confirm at order 128. Each Gaussian's
    # planted edge wins on its mixed score, so edge_recall depends on them.
    # Loads estimators and kernels.
    "mixed-hard": {"full": Shape(2_000, 30, 30, 8), "tiny": Shape(200, 3, 3, 8)},
}

NAMES = tuple(SHAPES)
