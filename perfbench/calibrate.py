"""Fixed reference work that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

On a shared machine the speed available to one process drifts by 20-40%
over tens of seconds, as other tenants load the cores it shares. run.py
times this script between rounds of CLI children and scales each
round's wall times by REFERENCE_S over the median time of the nearest
runs of this script. Like the CLI children it starts an interpreter,
imports numpy, runs Python loops around small numpy calls, and formats and
parses decimal text. It does not import dendrofit, so no change to the
program can change it.
"""

import numpy as np

rng = np.random.default_rng(0)
x = rng.standard_normal(2_000)
y = rng.integers(4, size=2_000)
total = 0.0
for _ in range(800):
    counts = np.bincount(y, minlength=4).astype(np.float64)
    sums = np.bincount(y, weights=x, minlength=4)
    total += float((sums / counts) @ counts)
text = "\n".join(",".join(format(v, ".17g") for v in x[:20]) for _ in range(2_000))
total += sum(float(cell) for line in text.splitlines() for cell in line.split(","))
table = {}
for i in range(80_000):
    table[i % 997] = table.get(i % 997, 0) + i
print(repr(total), len(table))
