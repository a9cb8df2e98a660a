"""Self-tests of the benchmark: tracer hygiene, the oracle, metric names."""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import conetilt  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conetilt import kernel_bundle, make_space  # noqa: E402
from tracer import LAYERS, METHODS, Tracer  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _snapshot(tracer):
    """Every name the tracer may patch, with the object it holds now."""
    owners = [vars(tracer.package)] + [vars(m) for m in tracer.modules.values()]
    for mod in tracer.modules.values():
        owners += [v for v in vars(mod).values() if type(v) is dict]
    owners += [dict(vars(getattr(tracer.modules["linalg"], c))) for c in METHODS]
    return [(key, value) for owner in owners for key, value in dict(owner).items()]


def _traced_queries(tracer):
    from conetilt.report import build_report

    X = make_space(3, 3)
    with tracer, tracer.root("bench.pass"):
        with tracer.root("bench.query", "kernel pair"):
            conetilt.objects.hom_objects(X, kernel_bundle(X, 1), kernel_bundle(X, 2))
        with tracer.root("bench.query", "report"):
            build_report("P112")
        with tracer.root("bench.query", "refusal"):
            with pytest.raises(conetilt.EngineError):
                conetilt.objects.hom_objects(X, conetilt.OX(1), kernel_bundle(X, 1))


def test_tracer_restores_every_patched_name():
    tracer = Tracer(conetilt)
    before = _snapshot(tracer)
    original = conetilt.objects.hom_objects
    with tracer:
        assert conetilt.objects.hom_objects is not original
        assert conetilt.hom_objects is conetilt.objects.hom_objects
        assert conetilt.tilting.hom_objects is conetilt.objects.hom_objects
    after = _snapshot(tracer)
    assert len(before) == len(after)
    assert all(k1 == k2 and v1 is v2 for (k1, v1), (k2, v2) in zip(before, after))


def test_tracer_restores_after_an_exception():
    tracer = Tracer(conetilt)
    before = _snapshot(tracer)
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert all(v1 is v2 for (_, v1), (_, v2) in zip(before, _snapshot(tracer)))


def test_self_times_add_up_to_the_traced_wall():
    tracer = Tracer(conetilt)
    _traced_queries(tracer)
    m = tracer.layer_metrics()
    parts = sum(m["%s.self_s" % layer] for layer in LAYERS)
    parts += m["trace.untraced_s"] + m["trace.self_s"]
    assert m["trace.wall_s"] > 0
    assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-12)
    assert min(tracer.self_times()) > -1e-9
    assert m["objects.queries"] >= 3
    assert m["objects.ladder.calls"] >= 1
    assert m["rules.refusals"] == 1
    assert {q for _, _, q in tracer.refusals} == {"refusal"}


# golden rows of the built-in instances that involve a kernel bundle;
# every one is concentrated in degree 0, so chi is the degree-0 dimension
P1113 = {"F": ("F", 1), "G": ("F", 2), "O": ("O", 0), "O3": ("O", 3),
         "OZ1": ("OZ", 1), "OZ2": ("OZ", 2)}
P1113_ROWS = [
    ("F", "O", 9), ("F", "OZ1", 18), ("F", "OZ2", 30),
    ("G", "O", 9), ("G", "OZ1", 24), ("G", "OZ2", 45),
    ("F", "F", 9), ("G", "G", 9), ("F", "G", 24), ("G", "F", 3),
    ("O", "F", 0), ("O", "G", 0), ("O3", "F", 0), ("O3", "G", 0),
]
P112 = {"FS": ("F", 1), "O": ("O", 0), "Om2": ("O", -2), "OC1": ("OZ", 1)}
P112_ROWS = [
    ("O", "FS", 0), ("FS", "Om2", 0), ("FS", "O", 4), ("FS", "OC1", 6),
    ("FS", "FS", 2),
]


@pytest.mark.parametrize(
    "n, m, names, rows", [(3, 3, P1113, P1113_ROWS), (2, 2, P112, P112_ROWS)]
)
def test_oracle_reproduces_golden_bundle_rows(n, m, names, rows):
    for a, b, dim0 in rows:
        assert oracle.chi(n, m, names[a], names[b]) == dim0, (a, b)


def test_oracle_has_no_value_outside_the_rules():
    assert oracle.chi(3, 3, ("F", 1), ("O", 1)) is None
    assert oracle.chi(3, 3, ("O", 2), ("F", 1)) is None
    assert oracle.chi(3, 3, ("OZ", 1), ("O", 3)) == -oracle.chi_section(3, 1 - 6 - 3)


def test_metric_names_and_units():
    bench = _benchmark()
    names = [e["name"] for e in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    units = [e["unit"] for e in bench["end_to_end"] + bench["per_layer"]]
    assert all(UNIT_RE.match(u) for u in units)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    values, _ = run.end_to_end(
        [0.1], [{"wall": 1.0, "rss_kb": 1024, "queries": [["q", 0.5, [1]]]}], 2, 0, 1
    )
    assert list(values) == [e["name"] for e in bench["end_to_end"]]
    tracer = Tracer(conetilt)
    _traced_queries(tracer)
    emitted = set(tracer.layer_metrics()) | {"trace.overhead_s"}
    assert emitted == {e["name"] for e in bench["per_layer"]}


def test_seed_permutes_queries_within_blocks_only():
    for workload, count in (("kernels", 109), ("sections", 592)):
        a = workloads.hom_queries(workload, 1)
        b = workloads.hom_queries(workload, 2)
        assert len(a) == count
        assert a != b and sorted(a) == sorted(b)
        assert a == workloads.hom_queries(workload, 1)
        assert [q[:2] for q in a] == [q[:2] for q in b]


def test_expected_table_covers_every_query():
    with open(os.path.join(BENCH, "expected.json")) as fh:
        table = json.load(fh)
    for workload in workloads.WORKLOADS:
        assert set(workloads.all_query_ids(workload)) == set(table[workload])
    refused = [q for q, o in table["kernels"].items() if isinstance(o, dict)]
    assert len(refused) == 21 and all(q.startswith("2,9:") for q in refused)


def test_judge_verdicts():
    q = (3, 3, ("F", 1), ("F", 2))
    qid = workloads.query_id(*q)
    specs = {qid: q}
    answered = {qid: [24, 0, 0, 0]}
    refused = {qid: {"refused": "IndeterminateRank"}}
    assert run.judge("kernels", qid, [24, 0, 0, 0], answered, specs) == "ok"
    assert run.judge("kernels", qid, [23, 0, 0, 0], answered, specs) == "failed"
    assert run.judge("kernels", qid, {"refused": "X"}, answered, specs) == "failed"
    assert run.judge("kernels", qid, {"error": "X"}, answered, specs) == "failed"
    assert run.judge("kernels", qid, {"refused": "X"}, refused, specs) == "refused"
    # an answer where the table records a refusal is checked by the oracle alone
    assert run.judge("kernels", qid, [24, 0, 0, 0], refused, specs) == "ok"
    assert run.judge("kernels", qid, [25, 0, 0, 0], refused, specs) == "failed"


def test_tail_groups_passes_to_a_fixed_percentile():
    value, pct, size, groups = run.tail_latency([[float(i % 200)] for i in range(450)])
    assert (value, pct, size, groups) == (189.0, 95.0, 200, 2)
    value, pct, size, groups = run.tail_latency([list(map(float, range(109)))] * 5)
    assert (value, size, groups) == (103.0, 218, 2)
    # fewer passes than one group: the whole run is one group
    value, pct, size, groups = run.tail_latency([[float(i)] for i in range(50)])
    assert (value, pct, size, groups) == (39.0, 80.0, 50, 1)
