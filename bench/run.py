"""The conetilt benchmark.

    python3 bench/run.py --workload paper|kernels|sections --seed N \
                         --seconds S --trace 0|1

Run from the root of a conetilt checkout.  A run is a closed loop with
one caller: passes run one at a time, each in a fresh interpreter
(bench/worker.py), until S seconds have gone by; the pass under way
then finishes.  Before the loop the run launches SETUP_PROBES
interpreters that only import the engine and build the query list, so
that set-up time has enough samples on every workload.

Every answer is checked against bench/expected.json (recorded from a
known-good engine) and, for Hom queries, against the Euler-form oracle
in bench/oracle.py.  With --trace 0 the run prints the end-to-end
metrics, measured with tracing off; with --trace 1 it alternates plain
and traced passes and prints the per-layer metrics of the traced ones
plus the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import alternating_sum, chi  # noqa: E402
from workloads import WORKLOADS, all_query_ids, hom_queries, query_id  # noqa: E402

SETUP_PROBES = 10
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
TAIL_GROUP = 200  # the tail is taken over groups of at least this many samples
RUN_LIMIT_S = 170  # a run never takes longer than this, children included
OUT_DIR = ".bench_out"



def metric_units():
    """{metric name: unit} of every metric BENCHMARK.json declares."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}


class PassFailed(Exception):
    """A pass interpreter exited abnormally or printed no result."""


def launch(root, workload, seed, index, mode, timeout, spans=None):
    """Run pass `index` in a fresh interpreter; returns its result with `setup`."""
    cmd = [
        sys.executable, "-I", os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", spans]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise PassFailed("%s pass did not finish within %.0f s" % (mode, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise PassFailed("%s pass exited %d: %s" % (mode, proc.returncode, tail[0]))
    out = json.loads(lines[-1])
    out["setup"] = out["ready"] - launched
    return out


def judge(workload, qid, outcome, expected, specs):
    """'ok', 'refused' or 'failed' for one query outcome."""
    if qid not in expected or (isinstance(outcome, dict) and "error" in outcome):
        return "failed"
    seed_outcome = expected[qid]
    if workload == "paper":
        return "ok" if outcome == seed_outcome else "failed"
    seed_refused = isinstance(seed_outcome, dict)
    if isinstance(outcome, dict):
        return "refused" if seed_refused else "failed"
    n, m, src, tgt = specs[qid]
    if len(outcome) != n + 1 or (not seed_refused and outcome != seed_outcome):
        return "failed"
    oracle = chi(n, m, src, tgt)
    if oracle is not None and oracle != alternating_sum(outcome):
        return "failed"
    return "ok"


def tail_latency(per_pass):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Consecutive passes are grouped so that each group has at least
    TAIL_GROUP samples; the tail of each complete group is its
    (TAIL_BEYOND+1)-th largest sample, and the median over the groups
    is returned with the percentile it stands for, the group size and
    the number of groups.  Grouping keeps the percentile independent of
    how many passes fit in the run.
    """
    size = max(1, math.ceil(TAIL_GROUP / max(1, len(per_pass[0]))))
    groups = [
        [x for p in per_pass[i:i + size] for x in p]
        for i in range(0, len(per_pass) - size + 1, size)
    ] or [[x for p in per_pass for x in p]]
    values = [sorted(g)[max(0, len(g) - TAIL_BEYOND - 1)] for g in groups]
    n = len(groups[0])
    pct = 100.0 * max(0, n - TAIL_BEYOND) / n
    return statistics.median(values), pct, n, len(groups)


def end_to_end(setups, plain, attempted, failed, refused):
    per_pass = [[q[1] for q in p["queries"]] for p in plain]
    tail, pct, group_n, groups = tail_latency(per_pass)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "query_ms_p50": 1e3 * statistics.median(x for p in per_pass for x in p),
        "query_ms_tail": 1e3 * tail,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024.0,
        "correct_share": (attempted - failed) / attempted,
        "answered_share": (attempted - refused) / attempted,
    }
    notes = [
        "setup_s: median of %d launches" % len(setups),
        "wall_s: median of %d untraced passes" % len(plain),
        "query_ms_tail: p%.1f of %d samples per group, median of %d groups"
        % (pct, group_n, groups),
        "failed_share %.4f, refused_share %.4f of %d queries"
        % (failed / attempted, refused / attempted, attempted),
    ]
    return values, notes


def per_layer(plain, traced):
    # one whole pass, the traced pass of median wall time, so that its
    # layer self times add up to its trace.wall_s exactly
    typical = sorted(traced, key=lambda t: t["wall"])[(len(traced) - 1) // 2]
    metrics = dict(typical["layers"])
    metrics["trace.overhead_s"] = typical["wall"] - statistics.median_low(
        p["wall"] for p in plain
    )
    return dict(sorted(metrics.items()))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "conetilt", "__init__.py")):
        print(
            "bench: no engine at ./src/conetilt; run from the root of a "
            "conetilt checkout",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]
    specs = {}
    if args.workload != "paper":
        specs = {query_id(*q): q for q in hom_queries(args.workload, 0)}
    n_queries = len(all_query_ids(args.workload))

    stop = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    spans_path = stem + "-spans.jsonl" if args.trace else None
    attempted = failed = refused = 0
    setups, plain, traced, problems = [], [], [], []

    def remaining():
        return stop - time.monotonic()

    try:
        # the first launch compiles bytecode and warms the file cache
        launch(root, args.workload, args.seed, 0, "setup", remaining())
        for _ in range(SETUP_PROBES):
            probe = launch(root, args.workload, args.seed, 0, "setup", remaining())
            setups.append(probe["setup"])
        deadline = time.monotonic() + args.seconds
        for index in itertools.count():
            mode = "trace" if args.trace and index % 2 else "pass"
            spans = spans_path if mode == "trace" and not traced else None
            out = launch(root, args.workload, args.seed, index, mode, remaining(), spans)
            for qid, _, outcome in out["queries"]:
                verdict = judge(args.workload, qid, outcome, expected, specs)
                attempted += 1
                failed += verdict == "failed"
                refused += verdict == "refused"
                if verdict == "failed" and len(problems) < 5:
                    problems.append("%s: got %s, expected %s" % (qid, outcome, expected.get(qid)))
            setups.append(out["setup"])
            (traced if mode == "trace" else plain).append(out)
            if time.monotonic() >= deadline and (traced or not args.trace):
                break
    except PassFailed as exc:
        problems.append(str(exc))
        attempted += n_queries
        failed += n_queries
    if not plain or (args.trace and not traced):
        for p in problems:
            print("bench: %s" % p, file=sys.stderr)
        return 1

    with open(stem + "-passes.json", "w") as fh:
        json.dump(
            {
                "setups": setups,
                "passes": [
                    {k: p[k] for k in ("wall", "setup", "rss_kb")}
                    | {"mode": mode, "latencies": [q[:2] for q in p["queries"]]}
                    for mode, group in (("pass", plain), ("trace", traced))
                    for p in group
                ],
            },
            fh,
        )
    values, notes = end_to_end(setups, plain, attempted, failed, refused)
    print(
        "workload %s, seed %d: %d untraced and %d traced passes"
        % (args.workload, args.seed, len(plain), len(traced))
    )
    for note in notes + ["FAILED " + p for p in problems]:
        print("  " + note)
    if args.trace:
        values = per_layer(plain, traced)
        print("  spans of the first traced pass: %s" % os.path.relpath(spans_path, root))
    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
