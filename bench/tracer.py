"""Outside-in tracer for the conetilt layers.

The tracer changes no file of the engine.  `install()` wraps every
public function of the layer modules (cone, linalg, rules, objects,
tilting, report, cli) at every name a caller can look it up by: the
defining module, each other conetilt module that imported it, the
package namespace and module-level dicts of functions.  It also wraps
the constructors and rank/kernel/cokernel methods of `PresentedMap` and
`Subquotient`.  `uninstall()` puts every original object back.

A span is kept in memory as [name, layer, start, end, parent, query id,
counts].  Spans nest like the call stack, so a span's self time is its
duration minus the durations of its direct children, and the self
times of all spans under a root add up to the root's duration.  The
matrices handed to `mat_rank`, `mat_mul`, `nullspace` and `rref` are
counted (entries, nonzeros, identity right factors) in a child span of
layer "trace", so the counting cost shows as its own layer instead of
inflating the engine's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cone", "linalg", "rules", "objects", "tilting", "report", "cli")
METHODS = {
    "PresentedMap": ("__init__", "rank", "kernel", "cokernel"),
    "Subquotient": ("__init__",),
}
# linalg functions whose matrix arguments are counted, by argument count
COUNTED = {"mat_rank": 1, "mat_mul": 2, "nullspace": 1, "rref": 1}

# a Hom query enters the objects layer through one of these
HOM_ENTRIES = ("objects.hom_objects", "objects.hom_objects_detailed")

ROOT_LAYER = "bench"
TRACE_LAYER = "trace"
NAME, LAYER, START, END, PARENT, QID, INFO = range(7)


def _matrix_counts(M):
    """(entries, nonzeros) of a list-of-rows matrix."""
    cols = len(M[0]) if M else 0
    nonzeros = 0
    for row in M:
        nonzeros += cols - row.count(0)
    return len(M) * cols, nonzeros


def _is_identity(M, nonzeros):
    n = len(M)
    if n == 0 or nonzeros != n or any(len(row) != n for row in M):
        return False
    return all(M[i][i] == 1 for i in range(n))


def _count_matrices(op, args):
    entries = nonzeros = largest = 0
    for M in args[: COUNTED[op]]:
        e, z = _matrix_counts(M)
        entries += e
        nonzeros += z
        largest = max(largest, e)
    info = {"entries": entries, "nonzeros": nonzeros, "largest": largest}
    if op == "mat_mul":
        # z is the nonzero count of the right factor, counted last
        info["identity"] = _is_identity(args[1], z)
    return info


class Tracer:
    """Records spans around every call into the conetilt layers."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            layer: importlib.import_module("%s.%s" % (package.__name__, layer))
            for layer in LAYERS
        }
        self.error_type = self.modules["linalg"].EngineError
        self.caches = {
            "%s.%s" % (layer, attr): fn
            for layer, mod in self.modules.items()
            for attr, fn in vars(mod).items()
            if callable(getattr(fn, "cache_info", None))
            and getattr(fn, "__module__", None) == mod.__name__
        }
        self.spans = []
        self.refusals = []  # (layer, exception class, query id), first surfacing
        self.qid = None
        self._stack = []
        self._patches = []
        self._seen = {}

    # -- patching ----------------------------------------------------------

    def _namespaces(self):
        spaces = [vars(self.package)] + [vars(m) for m in self.modules.values()]
        for mod in self.modules.values():
            spaces += [
                v for k, v in vars(mod).items() if type(v) is dict and not k.startswith("__")
            ]
        return spaces

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _patch(self, owner, key, value):
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        self._patches.append((owner, key, original))
        self._set(owner, key, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = self._namespaces()
        for layer, mod in self.modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                counted = attr if layer == "linalg" and attr in COUNTED else None
                wrapper = self._wrap("%s.%s" % (layer, attr), layer, fn, counted)
                for ns in namespaces:
                    for key in [k for k, v in ns.items() if v is fn]:
                        self._patch(ns, key, wrapper)
        linalg = self.modules["linalg"]
        for cls_name, methods in METHODS.items():
            cls = getattr(linalg, cls_name)
            for meth in methods:
                name = "linalg.%s.%s" % (cls_name, meth)
                self._patch(cls, meth, self._wrap(name, "linalg", vars(cls)[meth]))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            self._set(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, layer, fn, counted=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        error_type, tracer = self.error_type, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            info = None
            if counted is not None:
                c0 = clock()
                info = _count_matrices(counted, args)
                spans.append(
                    ["trace.count", TRACE_LAYER, c0, clock(), parent, tracer.qid, None]
                )
            span = [name, layer, clock(), 0.0, parent, tracer.qid, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if id(exc) not in tracer._seen:
                    tracer._seen[id(exc)] = exc
                    tracer.refusals.append((layer, type(exc).__name__, tracer.qid))
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def root(self, name, qid=None):
        """A bench-layer span around harness code, e.g. one query.

        Yields the span; its START and END are set when the block ends.
        """
        if qid is not None:
            self.qid = qid
        stack = self._stack
        span = [name, ROOT_LAYER, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    # -- results -----------------------------------------------------------

    def cache_info(self):
        """hits/misses of every lru_cache in the layer modules."""
        out = {}
        for name, fn in self.caches.items():
            ci = fn.cache_info()
            out[name] = (ci.hits, ci.misses)
        return out

    def self_times(self):
        """Self time of each span: its duration minus its children's."""
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i] + s, separators=(",", ":")) + "\n")
            largest = defaultdict(int)
            for s in self.spans:
                if s[INFO] is not None:
                    largest[s[QID]] = max(largest[s[QID]], s[INFO]["largest"])
            summary = {"cache_info": self.cache_info(), "largest_matrix": largest}
            fh.write(json.dumps(summary) + "\n")

    def layer_metrics(self):
        """The per-layer metrics of everything recorded so far."""
        spans = self.spans
        own = self.self_times()
        self_s = defaultdict(float)
        calls = defaultdict(int)
        incl = defaultdict(float)
        sums = defaultdict(lambda: defaultdict(int))
        ladder_max = query_max = 0
        queries = 0
        in_ladder = [False] * len(spans)
        for i, s in enumerate(spans):
            name, layer, parent = s[NAME], s[LAYER], s[PARENT]
            self_s[layer] += own[i]
            calls[name] += 1
            pname = spans[parent][NAME] if parent >= 0 else None
            if pname != name:
                incl[name] += s[END] - s[START]
            if name in HOM_ENTRIES and (parent < 0 or spans[parent][LAYER] != "objects"):
                queries += 1
            in_ladder[i] = name == "objects.ladder_propagate" or (
                parent >= 0 and in_ladder[parent]
            )
            info = s[INFO]
            if info is not None:
                tally = sums[name]
                for key, value in info.items():
                    tally[key] += value
                query_max = max(query_max, info["largest"])
                if in_ladder[i]:
                    ladder_max = max(ladder_max, info["largest"])
        caches = self.cache_info()

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(*names):
            hits = sum(caches[n][0] for n in names)
            return ratio(hits, hits + sum(caches[n][1] for n in names))

        rank, mul = sums["linalg.mat_rank"], sums["linalg.mat_mul"]
        refused = defaultdict(int)
        for layer, cls, _ in self.refusals:
            refused[layer] += 1
        roots = [s for s in spans if s[PARENT] < 0]
        m = {
            "linalg.mat_rank.calls": calls["linalg.mat_rank"],
            "linalg.mat_rank.s": incl["linalg.mat_rank"],
            "linalg.mat_rank.entries": rank["entries"],
            "linalg.mat_rank.density": ratio(rank["nonzeros"], rank["entries"]),
            "linalg.mat_mul.calls": calls["linalg.mat_mul"],
            "linalg.mat_mul.s": incl["linalg.mat_mul"],
            "linalg.mat_mul.entries": mul["entries"],
            "linalg.mat_mul.density": ratio(mul["nonzeros"], mul["entries"]),
            "linalg.mat_mul.identity_share": ratio(
                mul["identity"], calls["linalg.mat_mul"]
            ),
            "linalg.nullspace.s": incl["linalg.nullspace"],
            "linalg.max_matrix_entries": query_max,
            "linalg.subquotient.s": incl["linalg.Subquotient.__init__"],
            "linalg.presented_map.calls": calls["linalg.PresentedMap.__init__"],
            "linalg.presented_map.s": incl["linalg.PresentedMap.__init__"],
            "objects.ladder.calls": calls["objects.ladder_propagate"],
            "objects.ladder.s": incl["objects.ladder_propagate"],
            "objects.ladder.max_entries": ladder_max,
            "objects.queries": queries,
            "objects.les_contra.calls": calls["objects.les_hom_contra"],
            "objects.les_contra.s": incl["objects.les_hom_contra"],
            "objects.les_contra.cache_hit_ratio": hit_ratio(
                "objects._les_hom_contra_cached"
            ),
            "objects.les_cov.calls": calls["objects.les_hom_cov"],
            "objects.les_cov.s": incl["objects.les_hom_cov"],
            "objects.indeterminate": sum(
                1 for _, cls, _ in self.refusals if cls == "IndeterminateRank"
            ),
            "rules.cone_presentation.calls": calls["rules.cone_presentation"],
            "rules.cone_presentation.s": incl["rules.cone_presentation"],
            "rules.ext1_postcompose.s": incl["rules.ext1_postcompose_map"],
            "rules.hom_atoms.calls": calls["rules.hom_atoms"],
            "rules.hom_atoms.cache_hit_ratio": hit_ratio("rules.hom_atoms"),
            "rules.refusals": refused["rules"],
            "cone.calls": sum(v for k, v in calls.items() if k.startswith("cone.")),
            "cone.cache_hit_ratio": hit_ratio(*[k for k in caches if k.startswith("cone.")]),
            "tilting.check_sod.s": incl["tilting.check_sod"],
            "trace.wall_s": sum(s[END] - s[START] for s in roots),
            "trace.untraced_s": self_s[ROOT_LAYER],
            "trace.self_s": self_s[TRACE_LAYER],
        }
        for layer in LAYERS:
            m["%s.self_s" % layer] = self_s[layer]
        return m
