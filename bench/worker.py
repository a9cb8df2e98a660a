"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --pass-index K
                            --mode setup|pass|trace [--spans PATH]

Run from the root of a checkout; the engine is imported from ./src.
After the import and the query list are built the pass records the
time (`ready`, on the system-wide monotonic clock, so the parent can
subtract its launch time).  `setup` stops there; `pass` runs every
query once; `trace` does the same with the outside-in tracer installed.
The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import PAPER_INSTANCES, all_query_ids, hom_queries, query_id  # noqa: E402


def load_engine(root):
    """Import conetilt from <root>/src, never from an installed copy."""
    sys.path.insert(0, os.path.join(root, "src"))
    import conetilt

    if os.path.dirname(os.path.dirname(os.path.abspath(conetilt.__file__))) != (
        os.path.abspath(os.path.join(root, "src"))
    ):
        raise ImportError("conetilt was not imported from %s/src" % root)
    return conetilt


def build_queries(conetilt, workload, seed, pass_index=0):
    """[(query id, callable)], each callable returning the query's outcome."""
    if workload == "paper":
        cli = importlib.import_module(conetilt.__name__ + ".cli")

        def paper_sample():
            out = {}
            for inst in PAPER_INSTANCES:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(["paper-report", inst, "--format", "json"])
                out[inst] = [rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
            return out

        return [(all_query_ids("paper")[0], paper_sample)]

    objects, rules = conetilt.objects, conetilt.rules
    spaces = {}

    def make(X, spec):
        kind, t = spec
        if kind == "F":
            return objects.kernel_bundle(X, t)
        return rules.OX(t) if kind == "O" else rules.OZ(t)

    out = []
    for n, m, src, tgt in hom_queries(workload, seed, pass_index):
        X = spaces.get((n, m)) or spaces.setdefault((n, m), conetilt.make_space(n, m))
        A, B = make(X, src), make(X, tgt)
        # looked up at call time, so an installed tracer sees the call
        out.append((query_id(n, m, src, tgt), lambda X=X, A=A, B=B: objects.hom_objects(X, A, B)))
    return out


def run_query(fn, error_type):
    """Outcome of one query: dims, {"refused": class} or {"error": text}."""
    try:
        result = fn()
    except error_type as exc:
        return {"refused": type(exc).__name__}
    except Exception as exc:  # the benchmark reports it as a failed query
        return {"error": "%s: %s" % (type(exc).__name__, exc)}
    return list(result) if isinstance(result, tuple) else result


def run_pass(queries, error_type, tracer=None):
    """Run every query once; returns (wall seconds, [[qid, seconds, outcome]])."""
    clock = time.perf_counter
    results = []
    if tracer is None:
        t0 = clock()
        for qid, fn in queries:
            q0 = clock()
            outcome = run_query(fn, error_type)
            results.append([qid, clock() - q0, outcome])
        return clock() - t0, results
    from tracer import END, START

    with tracer, tracer.root("bench.pass") as whole:
        for qid, fn in queries:
            with tracer.root("bench.query", qid) as span:
                outcome = run_query(fn, error_type)
            results.append([qid, span[END] - span[START], outcome])
    return whole[END] - whole[START], results


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--spans", help="write the spans of a traced pass here")
    args = parser.parse_args(argv)

    conetilt = load_engine(os.getcwd())
    queries = build_queries(conetilt, args.workload, args.seed, args.pass_index)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer(conetilt)
        error_type = conetilt.EngineError
        out["wall"], out["queries"] = run_pass(queries, error_type, tracer)
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
