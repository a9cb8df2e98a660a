"""check_sod of <F, O, O(m)> over every cone P(1^n, m), n = 2..20,
m = 2..n+2 (228 cones), in one process; F is the sum of the kernel
bundles F_e, 0 < e < m.

    python3 bench_results/caches-hold-tables/sweep.py SRC_DIR

Prints the cones, the ones check_sod refused, the seconds, the peak RSS
(VmHWM, so Linux only) and the entries left in each lru_cache of cone,
rules and objects.  sweep.txt holds three alternating runs on the
parent's src/ and on this change's.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
import conetilt.cone  # noqa: E402
import conetilt.objects  # noqa: E402
import conetilt.rules  # noqa: E402
from conetilt.cone import make_space  # noqa: E402
from conetilt.linalg import EngineError  # noqa: E402
from conetilt.objects import direct_sum, kernel_bundle  # noqa: E402
from conetilt.rules import OX  # noqa: E402
from conetilt.tilting import check_sod  # noqa: E402

cells = refused = 0
started = time.perf_counter()
for n in range(2, 21):
    for m in range(2, n + 3):
        X = make_space(n, m)
        F = direct_sum(*[kernel_bundle(X, e) for e in range(1, m)])
        cells += 1
        try:
            check_sod(X, [("F", F), ("O", OX(0)), ("Om", OX(m))])
        except EngineError:
            refused += 1
seconds = time.perf_counter() - started
entries = {}
for mod in (conetilt.cone, conetilt.rules, conetilt.objects):
    for name, fn in vars(mod).items():
        if callable(getattr(fn, "cache_info", None)) and fn.__module__ == mod.__name__:
            entries[name] = fn.cache_info().currsize
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print("cells %d refused %d seconds %.3f peak_mb %.1f entries %d %s"
      % (cells, refused, seconds, hwm, sum(entries.values()), entries))
