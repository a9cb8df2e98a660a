"""Record the expected outcome of every benchmark query.

    python3 bench/record_expected.py

Run from the root of a checkout.  Every query of every workload is run
once in this interpreter and its outcome (dims, refusal class, or the
paper-report exit codes and JSON digests) is written to
bench/expected.json.  The table is recorded once from a known-good
engine; the benchmark compares later engines against it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402
from worker import build_queries, load_engine, run_query  # noqa: E402


def main():
    conetilt = load_engine(os.getcwd())
    table = {}
    for workload in WORKLOADS:
        table[workload] = {
            qid: run_query(fn, conetilt.EngineError)
            for qid, fn in build_queries(conetilt, workload, 0)
        }
        errors = [q for q, o in table[workload].items() if "error" in o]
        if errors:
            raise SystemExit("queries raised unexpected errors: %s" % errors)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        fh.write(format_table(table))


def format_table(table):
    """JSON with one query per line, so a changed outcome reads as one line."""
    blocks = []
    for workload in sorted(table):
        rows = [
            "  %s: %s" % (json.dumps(qid), json.dumps(outcome, sort_keys=True))
            for qid, outcome in sorted(table[workload].items())
        ]
        blocks.append(" %s: {\n%s\n }" % (json.dumps(workload), ",\n".join(rows)))
    return "{\n%s\n}\n" % ",\n".join(blocks)


if __name__ == "__main__":
    main()
