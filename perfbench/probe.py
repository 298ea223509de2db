"""Small checks that need numpy or dendrofit, run as children so the
benchmark's driving process never imports either.

    python3 perfbench/probe.py facts
        prints the numpy, BLAS and numba facts as JSON
    python3 perfbench/probe.py rows SAMPLE.csv SCHEMA.json
        prints the row count of SAMPLE.csv as read by dendrofit's own
        reader; a file that does not read back exits 1
    python3 perfbench/probe.py scores DATA.csv SCHEMA.json FOREST.json
        recomputes every pair's I_n in FOREST.json's report from the data,
        without dendrofit, and prints the pairs checked, the pairs off by
        more than the tolerance, and the worst relative error, as JSON
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import sys

# the quadrature ladder stops once an order doubling moves a mixed MI by
# less than 1e-8 relative (QuadratureSpec's default tolerance), which left
# errors of up to 1.5e-8 on these workloads; a fixed order-64 rule errs by
# about 1e-6. The closed forms are far more accurate. The floor covers
# near-zero MI.
SCORE_RTOL = 1e-7
SCORE_ATOL_PER_ROW = 1e-10


def facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def rows(sample: str, schema: str) -> int:
    from dendrofit.dataio import read_csv_dataset, read_schema

    return read_csv_dataset(sample, read_schema(schema)).n


def _mi_mixed(x, y) -> float:
    """Per-row MI of class y and x, modelled as a mixture of Gaussians with
    the class means and the pooled (divide-by-n) residual variance. The
    integral is a plain sum on a grid of 40 points per sd that reaches 14 sd
    past the outer means; the Gauss-Hermite ladder is not used."""
    import numpy as np

    counts = np.bincount(y).astype(np.float64)
    occupied = counts > 0
    means = (np.bincount(y, weights=x) / np.where(occupied, counts, 1.0))[occupied]
    var = float(((x - means[np.cumsum(occupied)[y] - 1]) ** 2).mean())
    logp = np.log(counts[occupied] / x.size)
    sd = math.sqrt(var)
    grid = np.arange(means.min() - 14 * sd, means.max() + 14 * sd, sd / 40)
    logphi = -((grid[:, None] - means) ** 2) / (2 * var) - 0.5 * math.log(2 * math.pi * var)
    logmix = np.logaddexp.reduce(logphi + logp, axis=1)
    return float((np.exp(logphi + logp) * (logphi - logmix[:, None])).sum() * sd / 40)


def _mi(x, y, gauss_x: bool, gauss_y: bool) -> float:
    """Per-row MI of one pair under the criterion's model of its kinds."""
    import numpy as np

    if gauss_x and gauss_y:
        xc, yc = x - x.mean(), y - y.mean()
        rho = float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))
        return -0.5 * math.log1p(-rho * rho)
    if gauss_x or gauss_y:
        return _mi_mixed(x, y) if gauss_x else _mi_mixed(y, x)
    kx, ky = x.max() + 1, y.max() + 1
    joint = np.bincount(x * ky + y, minlength=kx * ky).reshape(kx, ky) / x.size
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    cells = joint > 0
    return float((joint[cells] * np.log(joint[cells] / outer[cells])).sum())


def scores(data: str, schema: str, forest: str) -> dict:
    import numpy as np

    with open(schema, encoding="utf-8") as fh:
        gauss = {c["name"]: c["kind"] == "gaussian" for c in json.load(fh)}
    with open(data, encoding="utf-8", newline="") as fh:
        header, *table = csv.reader(fh)
    columns = {}
    for name, cells in zip(header, zip(*table)):
        columns[name] = (
            np.array(cells, dtype=np.float64) if gauss[name]
            else np.unique(np.array(cells), return_inverse=True)[1]
        )
    n = len(table)
    with open(forest, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    bad, worst = 0, 0.0
    for e in report:
        a, b = e["name_i"], e["name_j"]
        want = n * _mi(columns[a], columns[b], gauss[a], gauss[b])
        error = abs(e["mi"] - want)
        bad += error > SCORE_RTOL * want + SCORE_ATOL_PER_ROW * n
        worst = max(worst, error / want if want > 0 else error)
    return {"pairs": len(report), "bad": bad, "worst": worst}


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    commands = {"facts": facts, "rows": rows, "scores": scores}
    print(json.dumps(commands[command](*args)))
