"""The benchmark's workloads: inputs drawn from the seed, and the checks that
each operation's output is correct.

A workload hands the harness one *pass* of operations at a time.  Every pass
of a run has the same composition (the same points or rungs, in a seeded
order, with fresh seeded prices), so per-operation counts from the traced
run do not depend on how many passes fit in the time window.

An operation is one or more `wdss` command lines, each run in-process
through `wdss.cli.main` with `--format machine`.
"""

from __future__ import annotations

import json
import random
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

# Graphs with at most this many intermediate vertices are also cut by the
# brute-force oracle.  It tries 2^v cuts: 16 vertices take about 0.5 s.
BRUTE_FORCE_MAX_VERTICES = 16
# The backend comparison's fixed problem set: max-flow problems shaped like
# repair graphs (as many as benchmarks/bench_kernels.py cuts) and 24x20
# matrices over GF(256), the same count as that script.  Both backends run
# each chunk of SPEEDUP_CHUNK problems in turn, the first alternating, so
# that they see the processor at the same speed; the whole set is timed
# SPEEDUP_REPEATS times.
SPEEDUP_FLOWS = 672
SPEEDUP_MATRICES = 300
SPEEDUP_CHUNK = 12
SPEEDUP_REPEATS = 3


@dataclass
class Op:
    """One timed operation and, once run, when it ran, for how long (its
    commands' time, without the harness's) and what the program returned."""

    kind: str
    argvs: list
    meta: dict
    start: float = 0.0
    end: float = 0.0
    seconds: float = 0.0
    rcs: list = field(default_factory=list)
    outs: list = field(default_factory=list)
    errs: list = field(default_factory=list)


def _param_flags(n, k, d, r, T):
    return ["-n", str(n), "-k", str(k), "-d", str(d), "-r", str(r),
            "-T", str(T)]


def _small_fraction(rng):
    return Fraction(rng.randint(1, 60), rng.randint(1, 60))


def _exit_problems(op):
    return [f"exit code {rc}: {err.strip()[-300:]}"
            for rc, err in zip(op.rcs, op.errs) if rc != 0]


def _cut_checks(lib, inst, dc, expected):
    """Compare the min cut of one graph with the slow oracles in the tree.

    The dispatching max-flow is re-run under a probe that keeps its
    arguments; each call is then repeated on the pure-Python kernel.
    """
    g = lib.flowgraph.build_graph(inst, dc)
    calls = []
    dispatch = lib.kernels.max_flow

    def probe(*args):
        calls.append(args)
        return dispatch(*args)

    lib.kernels.max_flow = probe
    try:
        fast = lib.mincut.max_flow_min_cut(g)
    finally:
        lib.kernels.max_flow = dispatch
    problems = []
    if expected is not None and fast.value != expected:
        problems.append(f"witness max flow {fast.value} != reported {expected}")
    if lib.flowgraph.cut_capacity(g, fast.cut) != fast.value:
        problems.append("witness cut capacity differs from the max flow")
    for args in calls:
        want = dispatch(*args)
        got = lib.kernels_py.max_flow(*args)
        if want[0] != got[0] or list(want[1]) != list(got[1]):
            problems.append("kernels.max_flow differs from the pure-Python "
                            "kernel")
    if len(g.vertices) - 2 <= BRUTE_FORCE_MAX_VERTICES:
        oracle = lib.mincut.brute_force_min_cut(g).value
        if oracle != fast.value:
            problems.append(f"brute-force cut {oracle} != max flow "
                            f"{fast.value}")
    return problems


def _sample(rng, ops, kinds, count):
    picks = [i for i, op in enumerate(ops) if op.kind in kinds]
    return sorted(rng.sample(picks, min(count, len(picks))))


class GridMincut:
    """`wdss mincut` over the criterion-2 grid, canonical enumeration, no
    `--limit`.  A pass runs every grid point with T <= 1 once (cheap points:
    the median takes milliseconds, so the cli layer weighs) and HEAVY_PER_PASS
    copies of one n=8, T=2 point, where instance and collector enumeration,
    graph building, Fraction scaling and max-flow dominate."""

    name = "grid-mincut"
    HEAVY = (8, 2, 2, 2, 2)
    HEAVY_PER_PASS = 6
    # three passes give eighteen heavy operations, so the tail (ten operations
    # beyond it) falls among the heavy point's times
    min_passes = 3
    cross_checked_ops = 6

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.light = [pt for pt in self._grid() if pt[4] <= 1]
        self.used = set()

    def _grid(self):
        """Valid (n, k, d, r, T) with n <= 8, k <= 3, d <= 5, r <= 2, T <= 2."""
        model = self.lib.model
        points = []
        for n in range(2, 9):
            for k in range(1, 4):
                for d in range(1, 6):
                    for r in (1, 2):
                        for T in range(3):
                            p = model.SystemParams(n, k, d, r, Fraction(1),
                                                   Fraction(1), T)
                            if not model.validate_params(p):
                                points.append((n, k, d, r, T))
        return points

    def _prices(self, point):
        while True:
            alpha = _small_fraction(self.rng)
            beta = _small_fraction(self.rng)
            if (point, alpha, beta) not in self.used:
                self.used.add((point, alpha, beta))
                return alpha, beta

    def next_pass(self):
        points = self.light + [self.HEAVY] * self.HEAVY_PER_PASS
        self.rng.shuffle(points)
        ops = []
        for point in points:
            alpha, beta = self._prices(point)
            argv = ["mincut", *_param_flags(*point), "--alpha", str(alpha),
                    "--beta", str(beta), "--format", "machine"]
            kind = "heavy" if point == self.HEAVY else "light"
            ops.append(Op(kind, [argv], {"point": point, "alpha": alpha,
                                         "beta": beta}))
        return ops

    def check(self, op):
        """capacity >= c_lb everywhere, and == c_lb where n >= k + 2r."""
        problems = _exit_problems(op)
        if problems:
            return problems
        doc = json.loads(op.outs[0])
        n, k, d, r, T = op.meta["point"]
        p = self.lib.model.SystemParams(n, k, d, r, op.meta["alpha"],
                                        op.meta["beta"], T)
        bound = self.lib.capacity_bound.c_lb(p).value
        value = Fraction(doc["value"])
        if doc["truncated"]:
            problems.append("enumeration reported as truncated")
        if value < bound:
            problems.append(f"capacity {value} < c_lb {bound}")
        if n >= k + 2 * r and value != bound:
            problems.append(f"capacity {value} != c_lb {bound} with "
                            f"n >= k + 2r")
        return problems

    def cross_check(self, ops, rng):
        """On sampled operations, cut the witness collector's graph and one
        other collector's graph with the oracles."""
        model = self.lib.model
        found = {}
        for i in _sample(rng, ops, ("light", "heavy"), self.cross_checked_ops):
            op = ops[i]
            if op.rcs != [0]:
                continue
            doc = json.loads(op.outs[0])
            inst = model.instance_from_dict(doc["witness_instance"])
            wc = doc["witness_collector"]
            witness = model.DataCollectorSpec(wc["s"], frozenset(wc["K"]))
            others = list(model.enumerate_collectors(inst))
            problems = _cut_checks(self.lib, inst, witness,
                                   Fraction(doc["value"]))
            problems += _cut_checks(self.lib, inst, rng.choice(others), None)
            if problems:
                found[i] = problems
        return found


class DesignLadder:
    """`wdss tightness` then `wdss tradeoff` at design points on the rungs
    (k, r), T = k + r.  Profile enumeration grows about 13x for each +2 in
    k, so this loads `capacity_bound` and `tradeoff` and skips instance
    enumeration and rlnc.

    The cheap rungs get several design points per pass, so that the median
    and the tail of a two-pass run each fall inside a group of like
    operations, not on one operation's time.  A rung's design points have
    d = k + 1 and n = max(k + 2r, d + r) + 1 on every seed, since a rung's
    cost moves by up to 60% with its shape; the seed draws the prices, the
    file size B and the order."""

    name = "design-ladder"
    # (k, r) -> design points per pass
    RUNGS = {(2, 2): 1, (4, 2): 8, (6, 2): 3, (6, 3): 1, (8, 2): 1}
    # rungs priced with denominators near 2^62: their max-flow capacities
    # pass 62 bits, so the kernel's big-integer route runs.  Big-number
    # arithmetic makes an operation's cost vary with its prices, so this
    # rung is not one where the median or the tail falls.
    HUGE_PRICE_RUNGS = ((6, 3),)
    GRID = 33
    # a pass has ten operations cheaper than a (4, 2) tightness operation
    # (the (2, 2) ones and the (4, 2) tradeoffs) and ten dearer, so the
    # median falls in the middle of the (4, 2) tightness operations, sixteen
    # in two passes; the tail falls in the middle of the six (6, 2)
    # tightness ones
    min_passes = 2
    cross_checked_ops = 4

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.shapes = []
        for (k, r), count in self.RUNGS.items():
            d = k + 1
            shape = (max(k + 2 * r, d + r) + 1, k, d, r, k + r)
            self.shapes += [shape] * count

    def _huge_fraction(self):
        return Fraction(self.rng.randint(1, 1 << 20),
                        (1 << 62) - self.rng.randint(1, 1 << 20))

    def next_pass(self):
        shapes = list(self.shapes)
        self.rng.shuffle(shapes)
        ops = []
        for shape in shapes:
            n, k, d, r, T = shape
            if (k, r) in self.HUGE_PRICE_RUNGS:
                alpha, beta = self._huge_fraction(), self._huge_fraction()
            else:
                alpha = _small_fraction(self.rng)
                beta = _small_fraction(self.rng)
            B = _small_fraction(self.rng)
            flags = _param_flags(*shape)
            ops.append(Op("tightness", [["tightness", *flags,
                                         "--alpha", str(alpha),
                                         "--beta", str(beta),
                                         "--format", "machine"]],
                          {"shape": shape, "alpha": alpha, "beta": beta}))
            ops.append(Op("tradeoff", [["tradeoff", *flags, "--B", str(B),
                                        "--grid", str(self.GRID),
                                        "--format", "machine"]],
                          {"shape": shape, "B": B}))
        return ops

    def check(self, op):
        """tightness exits 0 with c_lb == cut == flow; the curve's ends are
        the closed-form minimum-bandwidth and minimum-storage points."""
        problems = _exit_problems(op)
        if problems:
            return problems
        doc = json.loads(op.outs[0])
        if op.kind == "tightness":
            values = {doc["c_lb"], doc["adversarial_cut_capacity"],
                      doc["witness_collector_max_flow"]}
            if len(values) != 1:
                problems.append(f"tightness values differ: {sorted(values)}")
            return problems
        n, k, d, r, T = op.meta["shape"]
        tradeoff = self.lib.tradeoff
        with warnings.catch_warnings():
            # (k, r) = (2, 2) has k/r = 1, for which the module warns
            warnings.simplefilter("ignore")
            ends = (tradeoff.mt_point("broadcast", k, d, r, op.meta["B"]),
                    tradeoff.ms_point("broadcast", k, d, r, op.meta["B"]))
        got = [doc["points"][0], doc["points"][-1]]
        for want, pt in zip(ends, got):
            if (Fraction(pt["tau"]), Fraction(pt["alpha"]),
                    Fraction(pt["beta"])) != (want.tau, want.alpha, want.beta):
                problems.append(f"curve endpoint {pt} != {want}")
        return problems

    def cross_check(self, ops, rng):
        """Raw profile enumeration against c_lb on every small-rung tightness
        operation; the oracles on the tightness graph of sampled ones."""
        found = {}
        cb = self.lib.capacity_bound
        model = self.lib.model
        sampled = set(_sample(rng, ops, ("tightness",), self.cross_checked_ops))
        for i, op in enumerate(ops):
            if op.kind != "tightness" or op.rcs != [0]:
                continue
            n, k, d, r, T = op.meta["shape"]
            doc = json.loads(op.outs[0])
            c_lb = Fraction(doc["c_lb"])
            problems = []
            if k <= 4:
                alpha, beta = op.meta["alpha"], op.meta["beta"]
                raw = min(a * alpha + b * beta
                          for _, a, b in cb.enumerate_profiles(n, k, d, r, T))
                if raw != c_lb:
                    problems.append(f"raw profile minimum {raw} != c_lb {c_lb}")
            if i in sampled:
                inst = model.instance_from_dict(doc["instance"])
                col = doc["collector"]
                dc = model.DataCollectorSpec(col["s"], frozenset(col["K"]))
                problems += _cut_checks(self.lib, inst, dc, c_lb)
            if problems:
                found[i] = problems
        return found


class RlncPair:
    """`wdss simulate --source random` on (8,3,4,2,T=2), alpha=2, beta=1,
    B=5=C_LB, run at --field 8 and then --field 16 as one operation, so the
    median is not split between two widths.  At w=16 most of the time is
    building GF tables (1 + 3 per trial); at w=8 it splits between the 168
    collector min-cuts and gf_rank."""

    name = "rlnc-pair"
    POINT = (8, 3, 4, 2, 2)
    ALPHA, BETA, B = 2, 1, 5
    # five trials keep a run above eleven operations (so it has a tail)
    # with the same share of GF table building as a hundred trials
    TRIALS = 5
    min_passes = 11
    cross_checked_ops = 3
    # the collector's 6x5 matrix, its transpose, and larger ones
    MATRIX_SHAPES = ((6, 5), (5, 6), (12, 5), (24, 20))

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.used = set()

    def next_pass(self):
        while True:
            op_seed = self.rng.randrange(1 << 31)
            if op_seed not in self.used:
                self.used.add(op_seed)
                break
        base = ["simulate", *_param_flags(*self.POINT),
                "--alpha", str(self.ALPHA), "--beta", str(self.BETA),
                "--B", str(self.B), "--trials", str(self.TRIALS),
                "--seed", str(op_seed), "--source", "random",
                "--format", "machine"]
        return [Op("pair", [base + ["--field", "8"], base + ["--field", "16"]],
                   {"seed": op_seed})]

    def check(self, op):
        """Both widths exit 0 (no rank above a min cut), and no collector's
        min cut is below the bound C_LB = B."""
        problems = _exit_problems(op)
        if problems:
            return problems
        for out in op.outs:
            doc = json.loads(out)
            if doc["violations"]:
                problems.append(f"{len(doc['violations'])} rank violations")
            low = [key for key, c in doc["per_collector"].items()
                   if Fraction(c["min_cut"]) < self.B]
            if low:
                problems.append(f"min cut below C_LB at collectors {low[:3]}")
        return problems

    def cross_check(self, ops, rng):
        """gf_rank of the dispatching kernel against the pure-Python one, on
        matrices drawn from sampled operations' seeds, full and deficient."""
        found = {}
        for i in _sample(rng, ops, ("pair",), self.cross_checked_ops):
            mrng = random.Random(f"{self.name}:matrices:{ops[i].meta['seed']}")
            calls = []
            for w in (8, 16):
                gf = self.lib.rlnc.GF(w)
                for rows, cols in self.MATRIX_SHAPES:
                    mat = [mrng.randrange(gf.order) for _ in range(rows * cols)]
                    deficient = mat[:cols] * 2 + mat[2 * cols:]
                    calls += [(m, rows, cols, gf.exp, gf.log, gf.order)
                              for m in (mat, deficient)]
            want = [self.lib.kernels.gf_rank(*args) for args in calls]
            got = [self.lib.kernels_py.gf_rank(*args) for args in calls]
            problems = [f"gf_rank {a} != pure-Python {b} on a {args[1]}x"
                        f"{args[2]} matrix over GF({args[5]})"
                        for a, b, args in zip(want, got, calls) if a != b]
            if problems:
                found[i] = problems
        return found


WORKLOADS = {w.name: w for w in (GridMincut, DesignLadder, RlncPair)}


def _flow_problem(rng):
    """A max-flow problem shaped like a repair graph: each storage node
    splits into an in and an out vertex joined by its storage capacity, the
    source feeds the first four nodes with unbounded edges, each later node
    downloads beta-sized pieces from three earlier ones, and a collector
    joins three nodes to the sink."""
    nodes = rng.randint(8, 14)
    n = 2 * nodes + 2
    source, sink = 0, n - 1
    big = 1 << 40
    alpha, beta = rng.randint(1, 60), rng.randint(1, 60)
    edges = []
    for v in range(nodes):
        vin, vout = 1 + 2 * v, 2 + 2 * v
        edges.append((vin, vout, alpha))
        if v < 4:
            edges.append((source, vin, big))
        else:
            for u in rng.sample(range(v), min(v, 3)):
                edges.append((2 + 2 * u, vin, beta))
    for v in rng.sample(range(nodes), 3):
        edges.append((2 + 2 * v, sink, big))
    return n, edges, source, sink


def backend_speedups(lib):
    """For each kernel, the pure-Python kernel's time over that of the
    dispatching `wdss.kernels` one on a fixed set of problems; about 1.0
    when the dispatch serves the pure-Python kernel.  Also the problems
    where the two disagree."""
    rng = random.Random("backend-speedups")
    gf = lib.rlnc.GF(8)
    rows, cols = 24, 20
    sets = (
        ("max_flow", [_flow_problem(rng) for _ in range(SPEEDUP_FLOWS)],
         lambda out: (out[0], list(out[1]))),
        ("gf_rank", [([rng.randrange(gf.order) for _ in range(rows * cols)],
                      rows, cols, gf.exp, gf.log, gf.order)
                     for _ in range(SPEEDUP_MATRICES)],
         lambda out: out),
    )
    speedups, problems = {}, []
    for name, calls, result in sets:
        kernels = (getattr(lib.kernels, name), getattr(lib.kernels_py, name))
        if any(result(kernels[0](*args)) != result(kernels[1](*args))
               for args in calls):
            problems.append(f"kernels.{name} differs from the pure-Python "
                            "kernel on the backend comparison's problems")
        totals = [0.0, 0.0]
        for repeat in range(SPEEDUP_REPEATS):
            for c in range(0, len(calls), SPEEDUP_CHUNK):
                chunk = calls[c:c + SPEEDUP_CHUNK]
                first = (repeat + c // SPEEDUP_CHUNK) % 2
                for side in (first, 1 - first):
                    fn = kernels[side]
                    t0 = time.perf_counter()
                    for args in chunk:
                        fn(*args)
                    totals[side] += time.perf_counter() - t0
        speedups[f"kernels.{name}.backend_speedup"] = totals[1] / totals[0]
    return speedups, problems
