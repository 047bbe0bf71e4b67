"""Tracing from outside the program: wrap boolsp's public functions.

Every public function of every boolsp module is replaced, under each name it
is bound to in any boolsp module, by a wrapper that records a span (name,
start, end, parent span, request id) in memory.  A few functions get a call
counter and no span, and a few hot helpers are left alone; see COUNT_ONLY
and UNWRAPPED.  Time spent in an unwrapped function counts as self time of
its nearest wrapped caller.

Spans stay in the benchmark's memory and are written to a file when the run
ends; per-layer metrics are computed from them.  A layer is a module.
"""

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

# boolsp.constructs is left out: no workload request reaches it.
MODULES = (
    "cli", "config", "experiments", "functions", "noise", "roots",
    "serialize", "sp", "spectrum",
)

# Called hundreds of thousands of times per region; a span each would cost
# more memory and time than the work itself, so only calls are counted.
COUNT_ONLY = {"roots.sign_at", "roots.pseudo_rem_tracked", "roots.variations_at"}

# Small helpers under the ones above (millions of calls at n=10): wrapping
# them would mostly measure the wrapper.
UNWRAPPED = {
    "roots.trim", "roots.degree", "roots.evaluate", "roots.eval_scaled",
    "roots.derivative", "roots.negate", "roots.content", "roots.primitive",
    "roots.coeff_sign_variations", "roots.exact_div", "functions.popcounts",
}

# The per-layer metrics by kind; README.md lists which end-to-end metric each
# should move, on which workload.
LAYER_FUNCTIONS = {
    "self_s": ("sp.sp_region", "noise.stability_report", "noise.closeness_to_sp",
               "sp.necessary_checks", "cli.main"),
    "total_s": ("roots.isolate_roots", "spectrum.point_matrix",
                "noise.scaled_t_values", "experiments.sp_fraction",
                "experiments.graph_scan", "serialize.load_json",
                "serialize.function_from_obj", "serialize.canonical_json"),
    "calls": ("roots.refine_root", "roots.poly_gcd", "roots.sign_at",
              "roots.isolate_roots", "spectrum.point_matrix",
              "noise.scaled_t_values", "spectrum.wht"),
}


def _whole_space_macs(n):
    """int64 multiply-adds of one whole-space pass over all 2^(2^n) tables:
    two (B x 2^n) @ (2^n x 2^n) matmuls plus the diagonal rho weighting."""
    size = 1 << n
    return (1 << size) * (2 * size * size + size)


class Tracer:
    def __init__(self):
        self.names = []  # span name per index
        self.spans = []  # [name index, start, end, parent index, request id]
        self.counters = defaultdict(int)
        self.request = None
        self._stack = []
        self._name_ids = {}
        self._matrices = {}  # id -> weakref of point matrices already counted

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn, after):
        name_id = len(self.names)
        self.names.append(name)
        self._name_ids[name] = name_id
        spans, stack, counters = self.spans, self._stack, self.counters
        calls = name + ".calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hooks(self):
        c = self.counters

        def isolated(args, kwargs, result):
            c["roots.roots_isolated"] += len(result)

        def matrix(args, kwargs, result):
            ref = self._matrices.get(id(result))
            if ref is None or ref() is not result:
                self._matrices[id(result)] = weakref.ref(result)
                c["spectrum.point_matrix.bytes"] += result.nbytes

        def region(args, kwargs, result):
            c["sp.points"] += 1 << args[0].n

        def census(args, kwargs, result):
            if result.mode == "exhaustive":
                c["experiments.census_macs"] += _whole_space_macs(result.n)

        def graph(args, kwargs, result):
            c["experiments.census_macs"] += _whole_space_macs(result.n)

        return {
            "roots.isolate_roots": isolated,
            "spectrum.point_matrix": matrix,
            "sp.sp_region": region,
            "experiments.sp_fraction": census,
            "experiments.graph_scan": graph,
        }

    def install(self):
        """Wrap every public boolsp function under every name bound to it."""
        mods = {m: sys.modules["boolsp." + m] for m in MODULES}
        hooks = self._after_hooks()
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in UNWRAPPED
                ):
                    continue
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = (obj, self._count_wrapper(name, obj))
                else:
                    wrapped[id(obj)] = (obj, self._span_wrapper(name, obj, hooks.get(name)))
        for mod in list(mods.values()) + [sys.modules["boolsp"]]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- metrics ----------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of everything traced so far."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        layer_self = defaultdict(float)
        distinct_polys = 0
        isolate = self._name_ids.get("roots.isolate_roots")
        region = self._name_ids.get("sp.sp_region")
        for i, s in enumerate(spans):
            name = names[s[0]]
            own = s[2] - s[1] - child[i]
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            parent = s[3]
            while parent >= 0 and spans[parent][0] != s[0]:
                parent = spans[parent][3]
            if parent < 0:  # outermost span of its name: no double counting
                total_s[name] += s[2] - s[1]
            if s[0] == isolate and s[3] >= 0 and spans[s[3]][0] == region:
                distinct_polys += 1

        c = self.counters
        out = {}
        for name in LAYER_FUNCTIONS["self_s"]:
            out[name + ".self_s"] = (self_s[name], "s")
        for name in LAYER_FUNCTIONS["total_s"]:
            out[name + ".total_s"] = (total_s[name], "s")
        for name in LAYER_FUNCTIONS["calls"]:
            out[name + ".calls"] = (c[name + ".calls"], "count")
        roots = c["roots.roots_isolated"]
        out["roots.roots_isolated"] = (roots, "count")
        out["roots.refine_per_root"] = (
            c["roots.refine_root.calls"] / roots if roots else 0.0, "ratio")
        out["spectrum.point_matrix.bytes"] = (c["spectrum.point_matrix.bytes"], "bytes")
        out["sp.distinct_polys"] = (distinct_polys, "count")
        out["sp.dedup_ratio"] = (
            c["sp.points"] / distinct_polys if distinct_polys else 0.0, "ratio")
        out["experiments.census_macs"] = (c["experiments.census_macs"], "count")
        for layer in MODULES:
            out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        out["trace.wall_s"] = (wall_s, "s")
        return out

    def dump(self, path, extra):
        """Write spans, counters and metrics as one JSON document."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "request"]
        doc["names"] = self.names
        doc["spans"] = self.spans
        doc["counters"] = dict(sorted(self.counters.items()))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
