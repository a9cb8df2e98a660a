"""tools/scale_ladder.py runs one small cell in a fresh interpreter."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_small_cell_is_timed_measured_and_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "scale_ladder.py"),
         "--label", "t", "--cells", "3,6", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "BENCH_scale_t.json"
    assert proc.stdout.strip() == str(path)
    result = json.loads(path.read_text())
    assert result["label"] == "t" and result["correct"] is True
    (cell,) = result["cells"]
    assert (cell["cell"], cell["n"], cell["m"]) == ("P(1^3,6)", 3, 6)
    # End(F) of the 25 pairs of P(1^3,6): Hom^2 is the top term T of three pairs (1 + 3 + 1)
    assert cell["dims"] == cell["expected"] == [2345, 0, 5, 0] and cell["correct"] is True
    assert cell["seconds"] > 0 and cell["peak_mb"] > 0
