"""Span tracing of the wdss layers, from outside the package.

`install` wraps the public functions of each layer and rebinds every name in
the wdss modules that refers to them, so calls made through a
`from .x import f` binding are traced too.  Each call (each `next()` of a
generator) records a span: operation id, name, parent span, start and end
in nanoseconds.  Spans stay in memory until the run ends.  Profile
enumeration yields too many items to span each one; they are only counted.

A span's self time is its duration minus the durations of its child spans.
The program is single-threaded and does no I/O, so no layer waits on
another and busy time and self time are the whole story.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

FIELDS = 5  # op, name id, parent span, start ns, end ns
CAP_LIMIT = 1 << 62  # the compiled max-flow's capacity limit


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.rec = array("q")
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.yielded = Counter()  # (generator name, caller name id) -> items
        self.last_instance = None

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        rec, stack = self.rec, self.stack
        i = len(rec) // FIELDS
        rec.extend((self.op, nid, stack[-1] if stack else -1,
                    time.perf_counter_ns(), 0))
        stack.append(i)
        return i

    def _close(self, i):
        self.stack.pop()
        self.rec[i * FIELDS + 4] = time.perf_counter_ns()

    def call(self, name, fn, count=None):
        """fn wrapped in a span; count(tracer, args, result) runs after it in
        a span of its own, so bookkeeping is not charged to the caller.  The
        span code is inlined: it runs some hundred thousand times a second."""
        nid = self.name_id(name)
        count_id = self.name_id("trace.count")
        rec, stack, clock = self.rec, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec) // FIELDS
            rec.extend((self.op, nid, stack[-1] if stack else -1, clock(), 0))
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[i * FIELDS + 4] = clock()
            if count is not None:
                j = len(rec) // FIELDS
                rec.extend((self.op, count_id, stack[-1] if stack else -1,
                            clock(), 0))
                count(self, args, out)
                rec[j * FIELDS + 4] = clock()
            return out
        return wrapper

    def generator(self, name, fn):
        """fn, a generator function, with a span around each next(); yields
        are counted per caller, by the name of the span that asked."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                caller = self._caller()
                i = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.yielded[name, caller] += 1
                yield item
        return wrapper

    def counted(self, name, fn):
        """fn, a generator function, with its yields counted per caller but
        no spans, for generators of very many cheap items: their time stays
        with the caller."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self._caller()
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.yielded[name, caller] += n
        return wrapper

    def _caller(self):
        """Name id of the innermost open span, -1 outside any."""
        return self.rec[self.stack[-1] * FIELDS + 1] if self.stack else -1

    def yields(self, name, caller=None):
        cid = None if caller is None else self._ids.get(caller)
        return sum(v for (n, c), v in self.yielded.items()
                   if n == name and (caller is None or c == cid))

    def write(self, path):
        """Spans as raw int64 records, with a JSON index beside them."""
        with open(path + ".bin", "wb") as fh:
            self.rec.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"fields": ["op", "name", "parent", "start_ns",
                                  "end_ns"],
                       "names": self.names}, fh)


def _count_graph(tracer, args, graph):
    tracer.counts["flowgraph.edges"] += len(graph.edges)
    if args[0] is not tracer.last_instance:
        tracer.last_instance = args[0]
        tracer.counts["flowgraph.instances"] += 1


def _count_flow(tracer, args, out):
    edges = args[1]
    tracer.counts["kernels.max_flow.edges"] += len(edges)
    if any(c >= CAP_LIMIT for _, _, c in edges):
        tracer.counts["kernels.max_flow.bigint_calls"] += 1


def _count_rank(tracer, args, out):
    tracer.counts["kernels.gf_rank.cells"] += args[1] * args[2]


def _count_forms(tracer, args, forms):
    tracer.counts["tradeoff.forms"] += len(forms)


# (span name, module, attribute, kind, count hook)
TRACED = (
    ("cli.main", "cli", "main", "call", None),
    ("model.enumerate_instances", "model", "enumerate_instances", "gen", None),
    ("model.enumerate_collectors", "model", "enumerate_collectors", "gen",
     None),
    ("flowgraph.build_graph", "flowgraph", "build_graph", "call",
     _count_graph),
    ("flowgraph.cut_capacity", "flowgraph", "cut_capacity", "call", None),
    ("mincut.storage_capacity", "mincut", "storage_capacity", "call", None),
    ("mincut.instance_capacity", "mincut", "instance_capacity", "call", None),
    ("mincut.max_flow_min_cut", "mincut", "max_flow_min_cut", "call", None),
    ("kernels.max_flow", "kernels", "max_flow", "call", _count_flow),
    ("kernels.gf_rank", "kernels", "gf_rank", "call", _count_rank),
    ("capacity_bound.c_lb", "capacity_bound", "c_lb", "call", None),
    # hundreds of thousands of profiles per call: counted, not spanned
    ("capacity_bound.enumerate_profiles", "capacity_bound",
     "enumerate_profiles", "count", None),
    ("capacity_bound.profile_forms", "capacity_bound", "profile_forms", "call",
     _count_forms),
    ("capacity_bound.adversarial_instance", "capacity_bound",
     "adversarial_instance", "call", None),
    ("tradeoff.sweep_curve", "tradeoff", "sweep_curve", "call", None),
    ("rlnc.achievability_experiment", "rlnc", "achievability_experiment",
     "call", None),
    ("rlnc.init_storage", "rlnc", "init_storage", "call", None),
    ("rlnc.run_repair_round", "rlnc", "run_repair_round", "call", None),
)


def install(tracer, lib):
    """Wrap every traced function that exists and rebind each wdss module
    name bound to it; the GF table build and rank are methods, wrapped on
    their class.  Returns what uninstall needs to put the originals back."""
    modules = [m for name, m in sys.modules.items()
               if name == "wdss" or name.startswith("wdss.")]
    replaced = []
    for span, module, attr, kind, count in TRACED:
        orig = getattr(getattr(lib, module), attr, None)
        if orig is None:
            continue
        if kind == "gen":
            wrapped = tracer.generator(span, orig)
        elif kind == "count":
            wrapped = tracer.counted(span, orig)
        else:
            wrapped = tracer.call(span, orig, count)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    replaced.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    gf = getattr(lib.rlnc, "GF", None)
    if gf is not None:
        for key, span in (("__init__", "rlnc.gf_build"), ("rank", "rlnc.rank")):
            orig = vars(gf).get(key)
            if orig is not None:
                replaced.append((gf, key, orig))
                setattr(gf, key, tracer.call(span, orig))
    return replaced


def uninstall(replaced):
    for owner, key, orig in replaced:
        setattr(owner, key, orig)


def _per_name(tracer):
    """calls, total and self nanoseconds per span name, the sum of all self
    times, the span count, and whether every span lies inside its parent."""
    rec = tracer.rec
    n = len(rec) // FIELDS
    child = [0] * n
    nested = True
    for i in range(n):
        b = i * FIELDS
        p = rec[b + 2]
        if p >= 0:
            pb = p * FIELDS
            child[p] += rec[b + 4] - rec[b + 3]
            if rec[b + 3] < rec[pb + 3] or rec[b + 4] > rec[pb + 4]:
                nested = False
    calls, total, own = Counter(), Counter(), Counter()
    self_ns = 0
    for i in range(n):
        b = i * FIELDS
        dur = rec[b + 4] - rec[b + 3]
        name = rec[b + 1]
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child[i]
        self_ns += dur - child[i]
    named = {tracer.names[k]: (calls[k], total[k], own[k]) for k in calls}
    return named, nested, self_ns, n


def layer_metrics(tracer, n_ops, op_seconds, scale):
    """Per-layer metrics, each per operation unless it is a ratio, with
    times multiplied by `scale`; the problems found in the span tree; and
    the share of `op_seconds`, the operations' time as the harness measured
    it around each call, that the spans cover.

    In a tree of nested spans the self times always add up to the root
    spans' time, so that share measures only the cost of the root wrapper:
    work that is not traced lands in the self time of its parent span."""
    named, nested, self_ns, spans = _per_name(tracer)
    c = tracer.counts

    def calls(name):
        return named.get(name, (0, 0, 0))[0]

    def busy(name):
        return named.get(name, (0, 0, 0))[1] / 1e9

    def layer_self(layer):
        return sum(v[2] for k, v in named.items()
                   if k.startswith(layer + ".")) / 1e9

    def ratio(a, b):
        """a / b; 0 where the layer did no work (b == 0)."""
        return a / b if b else 0.0

    graphs = calls("flowgraph.build_graph")
    form_profiles = tracer.yields("capacity_bound.enumerate_profiles",
                                  "capacity_bound.profile_forms")
    counts = {
        "model.instances": tracer.yields("model.enumerate_instances"),
        "model.collectors": tracer.yields("model.enumerate_collectors"),
        "flowgraph.graphs": graphs,
        "flowgraph.edges": c["flowgraph.edges"],
        "mincut.calls": calls("mincut.max_flow_min_cut"),
        "kernels.max_flow.calls": calls("kernels.max_flow"),
        "kernels.max_flow.edges": c["kernels.max_flow.edges"],
        "kernels.max_flow.bigint_calls": c["kernels.max_flow.bigint_calls"],
        "kernels.gf_rank.calls": calls("kernels.gf_rank"),
        "kernels.gf_rank.cells": c["kernels.gf_rank.cells"],
        "capacity_bound.profiles":
            tracer.yields("capacity_bound.enumerate_profiles"),
        "tradeoff.forms": c["tradeoff.forms"],
        "rlnc.gf_tables": calls("rlnc.gf_build"),
        "rlnc.rank_calls": calls("rlnc.rank"),
        "trace.spans": spans,
    }
    seconds = {
        "model.enumerate_s": layer_self("model"),
        "flowgraph.build_s": busy("flowgraph.build_graph"),
        "flowgraph.cut_s": busy("flowgraph.cut_capacity"),
        "mincut.self_s": layer_self("mincut"),
        "mincut.instance_s": busy("mincut.instance_capacity"),
        "kernels.max_flow.busy_s": busy("kernels.max_flow"),
        "kernels.gf_rank.busy_s": busy("kernels.gf_rank"),
        "capacity_bound.c_lb_s": busy("capacity_bound.c_lb"),
        "capacity_bound.self_s": layer_self("capacity_bound"),
        "capacity_bound.adversarial_s":
            busy("capacity_bound.adversarial_instance"),
        "tradeoff.profile_forms_s": busy("capacity_bound.profile_forms"),
        "tradeoff.sweep_s": busy("tradeoff.sweep_curve"),
        "rlnc.gf_build_s": busy("rlnc.gf_build"),
        "rlnc.repair_s": busy("rlnc.run_repair_round"),
        "rlnc.rank_s": busy("rlnc.rank"),
        "rlnc.self_s": layer_self("rlnc"),
        "cli.self_s": layer_self("cli"),
        "trace.self_s": layer_self("trace"),
    }
    metrics = {}
    for name, value in counts.items():
        metrics[name] = (value / n_ops, "count/op")
    for name, value in seconds.items():
        metrics[name] = (value * scale / n_ops, "s/op")
    metrics["flowgraph.graphs_per_instance"] = (
        ratio(graphs, c["flowgraph.instances"]), "ratio")
    metrics["tradeoff.forms_per_profile"] = (
        ratio(c["tradeoff.forms"], form_profiles), "ratio")
    problems = [] if nested else ["a span is not inside its parent"]
    return metrics, problems, ratio(self_ns / 1e9, op_seconds)
