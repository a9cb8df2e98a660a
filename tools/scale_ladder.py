"""Time End(F) on growing cones, one fresh interpreter per cell.

    python3 tools/scale_ladder.py --label NAME [--cells N,M ...] [--out DIR]

Run from the root of a conetilt checkout.  For each cell P(1^n, m) a
fresh interpreter imports that checkout's src/ and runs
hom_objects(X, F, F) with F the sum of the kernel bundles F_e, 0 < e < m.
It reports the seconds the query took, the child's own peak memory
(VmHWM of its /proc/self/status, so Linux only) and the total of each
degree.  A cell is correct when every total equals the sum of
tests/closed_form.py over the (m-1)^2 pairs, a closed form that shares
no premise with the engine's chase.

Writes DIR/BENCH_scale_<label>.json (DIR defaults to the current
directory) with every cell, the checkout's commit and the Python
version, prints its path, and exits 1 if a cell is not correct.  A
child that fails prints its stderr and the tool exits with its code,
writing nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]

from bench_snapshot import commit, run  # noqa: E402
from closed_form import kernel_pair_dims  # noqa: E402

CELLS = ("3,100", "3,200", "3,500", "20,20", "40,40", "60,60", "100,100")

CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from conetilt.cone import make_space
from conetilt.objects import direct_sum, hom_objects, kernel_bundle
n, m = int(sys.argv[2]), int(sys.argv[3])
X = make_space(n, m)
F = direct_sum(*[kernel_bundle(X, e) for e in range(1, m)])
started = time.perf_counter()
dims = hom_objects(X, F, F)
seconds = time.perf_counter() - started
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"dims": list(dims), "seconds": seconds, "peak_mb": hwm_kb / 1024.0}))
"""


def expected_dims(n, m):
    """Each degree's total of End(F) by the closed form."""
    total = [0] * (n + 1)
    for e in range(1, m):
        for f in range(1, m):
            total = [a + b for a, b in zip(total, kernel_pair_dims(n, m, e, f))]
    return total


def run_cell(n, m):
    """One cell in a fresh interpreter, judged by the closed form."""
    stdout = run([sys.executable, "-I", "-c", CHILD, os.path.join(ROOT, "src"), str(n), str(m)])
    cell = json.loads(stdout.strip().splitlines()[-1])
    expected = expected_dims(n, m)
    cell.update(
        cell="P(1^%d,%d)" % (n, m), n=n, m=m, expected=expected,
        correct=cell["dims"] == expected,
    )
    return cell


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--cells", nargs="+", default=CELLS, metavar="N,M")
    parser.add_argument("--out", default=".", help="directory of BENCH_scale_<label>.json")
    args = parser.parse_args(argv)

    cells = []
    for text in args.cells:
        n, m = map(int, text.split(","))
        cells.append(run_cell(n, m))
    result = {
        "label": args.label,
        "cells": cells,
        "correct": all(cell["correct"] for cell in cells),
        "commit": commit(),
        "python": sys.version.split()[0],
    }
    path = os.path.join(args.out, "BENCH_scale_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
