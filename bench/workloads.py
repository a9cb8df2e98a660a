"""The fixed query lists of the three workloads.

A query is a pair of object specs on one cone P(1^n, m).  A spec is
("F", e) for the canonical kernel bundle F_e, ("O", d) for O(d) or
("OZ", d) for OZ(d).  Queries come in blocks, one block per cone and
group; the seed permutes the order inside each block and never changes
the set of queries or the order of the blocks.

This module imports nothing from conetilt, so the oracle and the
expected-outcome table can be checked without the engine.
"""

from __future__ import annotations

import random

WORKLOADS = ("paper", "kernels", "sections")

# built-in instances run by `conetilt paper-report X --format json`
PAPER_INSTANCES = ("P1113", "P112")

# Hom(F_{m-1}, F_{m-1}) on growing cones; P(1^3, 9) is left out because
# that rung alone takes about 3 s, longer than the rest of the ladder
KERNEL_LADDER = [(3, m) for m in range(3, 9)] + [(4, m) for m in range(3, 6)]
# full e, e' grids; on P(1,1,9) 21 of the 64 pairs are refused at the seed
KERNEL_GRIDS = [(3, 7), (2, 9)]
# every atom <-> kernel pair with -m <= d <= m on these cones
SECTION_CONES = [(2, 7), (3, 5), (4, 3)]


def spec_str(spec):
    kind, t = spec
    return "%s%d" % (kind, t) if kind == "F" else "%s(%d)" % (kind, t)


def query_id(n, m, src, tgt):
    """Stable name of a Hom query, e.g. '3,7:F3->OZ(-2)'."""
    return "%d,%d:%s->%s" % (n, m, spec_str(src), spec_str(tgt))


def _kernel_blocks():
    blocks = [[(n, m, ("F", m - 1), ("F", m - 1))] for n, m in KERNEL_LADDER]
    for n, m in KERNEL_GRIDS:
        blocks.append(
            [(n, m, ("F", e), ("F", f)) for e in range(1, m) for f in range(1, m)]
        )
    return blocks


def _section_blocks():
    blocks = []
    for n, m in SECTION_CONES:
        block = []
        for e in range(1, m):
            for kind in ("O", "OZ"):
                for d in range(-m, m + 1):
                    block.append((n, m, ("F", e), (kind, d)))
                    block.append((n, m, (kind, d), ("F", e)))
        blocks.append(block)
    return blocks


def hom_queries(workload, seed, pass_index=0):
    """The Hom queries of `kernels` or `sections`, in the order of one pass.

    Each pass of a run gets its own order, drawn from the run's seed and
    the pass index, so that a run's figures average over several orders
    (the order decides which query pays for filling a shared cache).
    """
    if workload == "kernels":
        blocks = _kernel_blocks()
    elif workload == "sections":
        blocks = _section_blocks()
    else:
        raise ValueError("workload %r has no Hom queries" % workload)
    rng = random.Random("%d/%d" % (seed, pass_index))
    out = []
    for block in blocks:
        block = list(block)
        rng.shuffle(block)
        out.extend(block)
    return out


def all_query_ids(workload):
    """Every query id of a workload; the paper workload has one query."""
    if workload == "paper":
        return ["paper-report:" + "+".join(PAPER_INSTANCES)]
    return [query_id(*q) for q in hom_queries(workload, 0)]
