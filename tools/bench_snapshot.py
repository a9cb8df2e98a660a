"""Run the benchmark once and keep what it printed as BENCH_<label>.json.

    python3 tools/bench_snapshot.py --label NAME --workload paper|kernels|sections \
                                    --seed N --seconds S [--out DIR]

Run from the root of a conetilt checkout, as bench/run.py is; the
snapshot runs that checkout's bench/run.py unchanged, with tracing off,
so it measures the end-to-end metrics.  It writes DIR/BENCH_<label>.json
(DIR defaults to the current directory) with the run's last JSON line
(correct, attempted, failed, metrics), the pass counts and notes the
run printed, the arguments, the seconds the run took, the checkout's
commit and the Python version.

It also records `pass_rss_mb`, the peak RSS of one untraced pass of the
same workload and seed that the snapshot launches itself after the
run, once the run's first launch has compiled the bytecode (a pass that
compiles it peaks about 1 MB higher).  A pass reports `ru_maxrss`,
which starts from the RSS of the process that launched it;
bench/run.py keeps the results of every pass, so its `peak_rss_mb`
grows with the passes a run fits.  The snapshot process holds little,
so `pass_rss_mb` is the pass's own peak.

If the run or the extra pass fails, prints its stderr and exits with
its code, writing nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

HEADER = re.compile(r"workload (\S+), seed (-?\d+): (\d+) untraced and (\d+) traced passes$")


def parse_run_output(text):
    """The last JSON line of a bench/run.py stdout, with the pass counts
    of its header line and the notes it printed (its indented lines
    other than the metric lines)."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    header = [match for match in map(HEADER.match, lines) if match]
    if len(header) != 1:
        raise ValueError("expected one 'workload ..., seed ...: ... passes' line")
    _, _, untraced, traced = header[0].groups()
    result["passes"] = {"untraced": int(untraced), "traced": int(traced)}
    metrics = result["metrics"]
    result["notes"] = [
        line.strip()
        for line in lines[:-1]
        if line.startswith("  ") and line.split()[0] not in metrics
    ]
    return result


def run(command):
    """The stdout of `command`; if it fails, print its stderr and exit
    with its code."""
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return proc.stdout


def pass_rss_mb(workload, seed):
    """Peak RSS in MB of one untraced pass launched from this process."""
    stdout = run([
        sys.executable, "-I", os.path.join("bench", "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", "pass",
    ])
    return json.loads(stdout.strip().splitlines()[-1])["rss_kb"] / 1024.0


def commit():
    """The checkout's commit, suffixed -dirty if the tree has edits; None
    outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", default=".", help="directory of BENCH_<label>.json")
    args = parser.parse_args(argv)

    started = time.monotonic()
    stdout = run([
        sys.executable, os.path.join("bench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ])
    took = time.monotonic() - started
    snapshot = parse_run_output(stdout)
    rss = pass_rss_mb(args.workload, args.seed)
    snapshot.update(
        label=args.label,
        workload=args.workload,
        seed=args.seed,
        run_seconds=args.seconds,
        took_s=took,
        commit=commit(),
        python=sys.version.split()[0],
        pass_rss_mb=rss,
    )
    path = os.path.join(args.out, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
