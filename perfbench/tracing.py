"""Spans around koszulkit's layer boundaries, installed only for a traced run.

`install(tracer)` replaces chosen public functions and methods of the
koszulkit modules with wrappers.  Every module-level alias of a wrapped
function is rebound too: `kernel_of_columns`, for example, is imported by
name into `quotient`, `koszul` and `resolutions`, and `normal_form` into
`quotient`, so patching `linalg` alone would miss most calls.  No source
file changes; `uninstall` puts the originals back.

A span records its name, start, end, parent span and op id.  Spans are
kept in flat arrays in memory and written out when the run ends.  They are
recorded only inside an op (the benchmark opens one root span per op), so
the answer checks that run between ops are not traced.  A layer's self
time is its spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

SPAN = "span"
COUNT = "count"

RESOLVE = "resolutions.resolve"
LIFT = "resolutions.lift"
CHECK = "conditions.check"


class Tracer:
    """In-memory span store plus the counters the wrappers' hooks fill."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.open_count: list[int] = []
        self.stack: list[int] = []  # open spans; the wrappers hold this list
        self.reset()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.open_count.append(0)
        return nid

    def reset(self):
        """Drop recorded spans and counters (one traced pass at a time)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack.clear()
        self.op_id = -1
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def is_open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.open_count[nid] > 0

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        stack = self.stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.open_count[nid] += 1
        stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self.stack.pop()
        self.open_count[self.span_name[idx]] -= 1

    def begin_op(self, op_id: int, name: str) -> int:
        self.op_id = op_id
        return self.open(self.name_id("op." + name))

    def end_op(self, idx: int):
        self.close(idx)
        self.op_id = -1

    # -- analysis -----------------------------------------------------

    def summarize(self):
        """Per-name calls and self time, plus the nesting checks.

        Returns (calls, self_s, problems): problems lists spans that end
        outside their parent or change op id, and ops whose span self
        times do not add up to the op's duration.
        """
        start, end, parent, op, name = (self.span_start, self.span_end, self.span_parent,
                                        self.span_op, self.span_name)
        n = len(start)
        dur = array("d", (end[i] - start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        problems = []
        for i in range(n):
            p = parent[i]
            if dur[i] < 0:
                problems.append("span %d ends before it starts" % i)
            if p >= 0:
                child[p] += dur[i]
                if start[i] < start[p] or end[i] > end[p] or op[i] != op[p]:
                    problems.append("span %d (%s) is not nested in its parent"
                                    % (i, self.names[name[i]]))
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        op_self: dict[int, float] = {}
        op_dur: dict[int, float] = {}
        for i in range(n):
            s = dur[i] - child[i]
            calls[name[i]] += 1
            self_s[name[i]] += s
            op_self[op[i]] = op_self.get(op[i], 0.0) + s
            if parent[i] < 0:
                op_dur[op[i]] = dur[i]
        for op_id, total in op_dur.items():
            if abs(op_self[op_id] - total) > 1e-6 * max(1.0, total):
                problems.append("op %d: self times sum to %.9f s, op took %.9f s"
                                % (op_id, op_self[op_id], total))
        named_calls = {self.names[k]: c for k, c in enumerate(calls) if c}
        named_self = {self.names[k]: s for k, s in enumerate(self_s) if calls[k]}
        return named_calls, named_self, problems

    def write(self, path):
        """Spans as gzipped TSV: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.span_parent[i], self.span_op[i], names[self.span_name[i]],
                    self.span_start[i], self.span_end[i]))


# -- wrappers ----------------------------------------------------------


def _span_wrapper(tracer, fn, nid, hook):
    """A span around each call made inside an op; hook(tracer, args, result)."""
    stack = tracer.stack

    def wrapper(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


def _count_wrapper(tracer, fn, nid, hook):
    """Counts calls without a span; the time stays with the caller.

    A hook here makes the call itself: hook(tracer, fn, args, kwargs).
    """
    stack = tracer.stack
    key = tracer.names[nid]

    def wrapper(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        tracer.count(key)
        if hook is None:
            return fn(*args, **kwargs)
        return hook(tracer, fn, args, kwargs)

    return wrapper


def _betti_hook(tracer, args, data):
    tracer.count("resolutions.betti_total", sum(data.betti_numbers()))
    tracer.count("resolutions.span_dim_total",
                 sum(entry[3] for _tor, log in data.exactness_log for entry in log))
    if not data.graded:
        tracer.count("resolutions.ungraded_calls")


def _reduce_hook(tracer, args, result):
    tracer.count("linalg.reduce.entries_in", len(args[1]))


def _add_hook(tracer, args, result):
    if result is None:
        tracer.count("linalg.add.useful")


def _extend_hook(tracer, fn, args, kwargs):
    grew = fn(*args, **kwargs)
    if tracer.is_open(RESOLVE) or tracer.is_open(LIFT):
        tracer.count("resolutions.extend.calls")
        if grew:
            tracer.count("resolutions.extend.useful")
    return grew


def _reduce_monomial_hook(tracer, fn, args, kwargs):
    ring, mono = args[0], args[1]
    if mono not in ring._mono_nf:
        tracer.count("quotient.nf_cache.misses")
    return fn(*args, **kwargs)


def _homology_hook(tracer, args, result):
    tracer.count("koszul.homology_dim_total", sum(p.dim for p in args[0].pieces.values()))


def _normal_form_hook(tracer, args, result):
    if not result.terms:
        tracer.count("groebner.normal_form.zeros")


def _buchberger_hook(tracer, args, result):
    tracer.count("groebner.basis_size", len(result))


def _check_hook(tracer, args, report):
    if tracer.is_open(CHECK):
        return  # a check nested in another check: count its outermost caller only
    tracer.count("conditions.pieces_total", len(report.pieces))
    tracer.count("conditions.source_dim_total", sum(p.source_dim for p in report.pieces))
    tracer.count("conditions.target_rank_total", sum(p.target_rank for p in report.pieces))


# (module, class or None, attribute, layer name, kind, hook)
WRAPPED = (
    ("ringdef", None, "parse_ring_definition", "ringdef.parse", SPAN, None),
    ("quotient", "QuotientRing", "__init__", "quotient.build", SPAN, None),
    ("quotient", "QuotientRing", "multiply", "quotient.multiply", SPAN, None),
    ("quotient", "QuotientRing", "normal_form", "quotient.normal_form", SPAN, None),
    ("quotient", "QuotientRing", "mono_product", "quotient.mono_product.calls", COUNT, None),
    ("quotient", "QuotientRing", "reduce_monomial", "quotient.reduce_monomial.calls", COUNT,
     _reduce_monomial_hook),
    ("groebner", None, "buchberger", "groebner.buchberger", SPAN, _buchberger_hook),
    ("groebner", None, "normal_form", "groebner.normal_form", SPAN, _normal_form_hook),
    ("poly", "Polynomial", "__add__", "poly.add", SPAN, None),
    ("linalg", "EchelonSolver", "reduce", "linalg.reduce", SPAN, _reduce_hook),
    ("linalg", "EchelonSolver", "add", "linalg.add", SPAN, _add_hook),
    ("linalg", "Subspace", "extend", "linalg.extend.calls", COUNT, _extend_hook),
    ("linalg", None, "kernel_of_columns", "linalg.kernel", SPAN, None),
    ("koszul", "HomologyAlgebra", "__init__", "koszul.homology", SPAN, _homology_hook),
    ("koszul", "HomologyAlgebra", "generators", "koszul.generators", SPAN, None),
    ("koszul", "KoszulElement", "__mul__", "koszul.element_mul", SPAN, None),
    ("koszul", "KoszulElement", "diff", "koszul.diff.calls", COUNT, None),
    ("koszul", None, "differential_columns", "koszul.differential_columns", SPAN, None),
    ("koszul", None, "filtered_cycles", "koszul.filtered", SPAN, None),
    ("koszul", None, "filtered_component", "koszul.filtered", SPAN, None),
    ("koszul", None, "filtered_boundaries", "koszul.filtered", SPAN, None),
    ("resolutions", None, "minimal_resolution", RESOLVE, SPAN, _betti_hook),
    ("resolutions", None, "tor_map_vanishes", LIFT, SPAN, None),
    ("conditions", None, "check_trivial_products", CHECK, SPAN, _check_hook),
    ("conditions", None, "check_nonlinear_generated_by", CHECK, SPAN, _check_hook),
    ("conditions", None, "check_Z_graded", CHECK, SPAN, _check_hook),
    ("conditions", None, "check_P_graded", CHECK, SPAN, _check_hook),
    ("conditions", None, "check_P_local", CHECK, SPAN, _check_hook),
    ("conditions", None, "build_stretched_ring", "conditions.stretched_build", SPAN, None),
    ("conditions", None, "stretched_F_cycle", "conditions.stretched_f_cycle", SPAN, None),
)


def _koszulkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "koszulkit" or name.startswith("koszulkit."))]


def install(tracer: Tracer) -> list:
    """Wrap every entry of WRAPPED; returns the undo list for `uninstall`."""
    undo = []
    modules = _koszulkit_modules()
    for mod_name, cls_name, attr, layer, kind, hook in WRAPPED:
        module = importlib.import_module("koszulkit." + mod_name)
        nid = tracer.name_id(layer)
        make = _span_wrapper if kind == SPAN else _count_wrapper
        if cls_name is not None:
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapper = make(tracer, original, nid, hook)
            # class-level aliases such as `__radd__ = __add__`
            for key, value in list(owner.__dict__.items()):
                if value is original:
                    undo.append((owner, key, value))
                    setattr(owner, key, wrapper)
            continue
        original = getattr(module, attr)
        wrapper = make(tracer, original, nid, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list):
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(calls: dict, self_s: dict, counters: dict) -> dict:
    """The per-layer metric values of one traced pass, by metric name."""
    c = counters
    res_calls = calls.get(RESOLVE, 0)
    op_self = sum(s for name, s in self_s.items() if name.startswith("op."))
    return {
        "resolutions.resolve.calls": res_calls,
        "resolutions.resolve.self_s": self_s.get(RESOLVE, 0.0),
        "resolutions.resolve.ungraded_share": _ratio(c.get("resolutions.ungraded_calls", 0),
                                                     res_calls),
        "resolutions.lift.self_s": self_s.get(LIFT, 0.0),
        "resolutions.betti_total": c.get("resolutions.betti_total", 0),
        "resolutions.span_dim_total": c.get("resolutions.span_dim_total", 0),
        "resolutions.extend.useful_ratio": _ratio(c.get("resolutions.extend.useful", 0),
                                                  c.get("resolutions.extend.calls", 0)),
        "linalg.reduce.calls": calls.get("linalg.reduce", 0),
        "linalg.reduce.self_s": self_s.get("linalg.reduce", 0.0),
        "linalg.reduce.entries_in": c.get("linalg.reduce.entries_in", 0),
        "linalg.add.calls": calls.get("linalg.add", 0),
        "linalg.add.useful_ratio": _ratio(c.get("linalg.add.useful", 0),
                                          calls.get("linalg.add", 0)),
        "linalg.kernel.calls": calls.get("linalg.kernel", 0),
        "linalg.kernel.self_s": self_s.get("linalg.kernel", 0.0),
        "koszul.homology.self_s": self_s.get("koszul.homology", 0.0),
        "koszul.generators.self_s": self_s.get("koszul.generators", 0.0),
        "koszul.element_mul.calls": calls.get("koszul.element_mul", 0),
        "koszul.element_mul.self_s": self_s.get("koszul.element_mul", 0.0),
        "koszul.diff.calls": c.get("koszul.diff.calls", 0),
        "koszul.differential_columns.self_s": self_s.get("koszul.differential_columns", 0.0),
        "koszul.homology_dim_total": c.get("koszul.homology_dim_total", 0),
        "koszul.filtered.self_s": self_s.get("koszul.filtered", 0.0),
        "quotient.build.calls": calls.get("quotient.build", 0),
        "quotient.build.self_s": self_s.get("quotient.build", 0.0),
        "quotient.multiply.calls": calls.get("quotient.multiply", 0),
        "quotient.multiply.self_s": self_s.get("quotient.multiply", 0.0),
        "quotient.normal_form.calls": calls.get("quotient.normal_form", 0),
        "quotient.normal_form.self_s": self_s.get("quotient.normal_form", 0.0),
        "quotient.mono_product.calls": c.get("quotient.mono_product.calls", 0),
        "quotient.nf_cache.miss_ratio": _ratio(c.get("quotient.nf_cache.misses", 0),
                                               c.get("quotient.reduce_monomial.calls", 0)),
        "groebner.buchberger.calls": calls.get("groebner.buchberger", 0),
        "groebner.buchberger.self_s": self_s.get("groebner.buchberger", 0.0),
        "groebner.normal_form.calls": calls.get("groebner.normal_form", 0),
        "groebner.normal_form.zero_ratio": _ratio(c.get("groebner.normal_form.zeros", 0),
                                                  calls.get("groebner.normal_form", 0)),
        "groebner.basis_size": c.get("groebner.basis_size", 0),
        "poly.add.calls": calls.get("poly.add", 0),
        "poly.add.self_s": self_s.get("poly.add", 0.0),
        "conditions.check.calls": calls.get(CHECK, 0),
        "conditions.check.self_s": self_s.get(CHECK, 0.0),
        "conditions.stretched_build.self_s": self_s.get("conditions.stretched_build", 0.0),
        "conditions.stretched_f_cycle.self_s": self_s.get("conditions.stretched_f_cycle", 0.0),
        "conditions.pieces_total": c.get("conditions.pieces_total", 0),
        "conditions.source_dim_total": c.get("conditions.source_dim_total", 0),
        "conditions.target_rank_total": c.get("conditions.target_rank_total", 0),
        "ringdef.parse.calls": calls.get("ringdef.parse", 0),
        "ringdef.parse.self_s": self_s.get("ringdef.parse", 0.0),
        "bench.op_self_s": op_self,
    }


# Self-time metrics compared when naming the hottest layer.
SELF_TIME_METRICS = tuple(name for name in layer_metrics({}, {}, {})
                          if name.endswith(".self_s") and not name.startswith("bench."))
