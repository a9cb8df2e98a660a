"""tools/bench_snapshot.py reads what bench/run.py prints: canned output,
no subprocess."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_snapshot", os.path.join(ROOT, "tools", "bench_snapshot.py")
)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)


def _metrics(*rows):
    """The "metrics" object of bench/run.py from (name, value, unit) rows."""
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def _stdout(header, notes, result):
    """The text bench/run.py prints: header, notes, metric lines, JSON."""
    lines = [header] + ["  " + note for note in notes]
    lines += [
        "  %-40s %14.6g %s" % (name, m["value"], m["unit"])
        for name, m in result["metrics"].items()
    ]
    return "\n".join(lines + [json.dumps(result)]) + "\n"


PLAIN = {
    "correct": True,
    "attempted": 132608,
    "failed": 0,
    "metrics": _metrics(
        ("setup_s", 0.0576, "s"),
        ("wall_s", 0.0104, "s"),
        ("query_ms_p50", 0.0255, "ms"),
        ("query_ms_tail", 0.0731, "ms"),
        ("peak_rss_mb", 38.88, "MB"),
        ("correct_share", 1.0, "ratio"),
        ("answered_share", 0.5963, "ratio"),
    ),
}
PLAIN_NOTES = [
    "setup_s: median of 234 launches",
    "wall_s: median of 224 untraced passes",
    "query_ms_tail: p98.3 of 592 samples per group, median of 224 groups",
    "failed_share 0.0000, refused_share 0.4037 of 132608 queries",
]


def test_an_untraced_run_keeps_its_json_pass_counts_and_notes():
    header = "workload sections, seed 47: 224 untraced and 0 traced passes"
    snapshot = bench_snapshot.parse_run_output(_stdout(header, PLAIN_NOTES, PLAIN))
    assert snapshot.pop("passes") == {"untraced": 224, "traced": 0}
    assert snapshot.pop("notes") == PLAIN_NOTES
    assert snapshot == PLAIN


def test_a_failed_run_keeps_its_failure_notes():
    failed = dict(PLAIN, correct=False, attempted=1184, failed=592)
    notes = PLAIN_NOTES[:3] + [
        "failed_share 0.5000, refused_share 0.2019 of 1184 queries",
        "FAILED sections/3/7/F1/O-7: got {'error': 'x'}, expected [0, 0, 0, 21]",
    ]
    header = "workload sections, seed -3: 2 untraced and 0 traced passes"
    snapshot = bench_snapshot.parse_run_output(_stdout(header, notes, failed))
    assert snapshot.pop("passes") == {"untraced": 2, "traced": 0}
    assert snapshot.pop("notes") == notes
    assert snapshot == failed


@pytest.mark.parametrize("header", ["", "workload sections, seed 1: 3 passes"])
def test_output_without_one_pass_count_line_is_refused(header):
    with pytest.raises(ValueError, match="expected one 'workload"):
        bench_snapshot.parse_run_output(_stdout(header, PLAIN_NOTES, PLAIN))


def test_a_failed_rss_pass_writes_nothing_and_exits_with_its_code(
    monkeypatch, tmp_path, capsys
):
    header = "workload sections, seed 5: 224 untraced and 0 traced passes"
    ran = []

    def fake_run(command, **kwargs):
        ran.append(next(os.path.basename(a) for a in command if a.endswith(".py")))
        if ran[-1] == "run.py":
            return subprocess.CompletedProcess(
                command, 0, _stdout(header, PLAIN_NOTES, PLAIN), ""
            )
        return subprocess.CompletedProcess(command, 3, "", "pass died\n")

    monkeypatch.setattr(bench_snapshot.subprocess, "run", fake_run)
    argv = ["--label", "x", "--workload", "sections", "--seed", "5",
            "--seconds", "1", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as stop:
        bench_snapshot.main(argv)
    assert stop.value.code == 3
    assert ran == ["run.py", "worker.py"]
    assert capsys.readouterr().err == "pass died\n"
    assert list(tmp_path.iterdir()) == []
