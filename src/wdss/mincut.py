"""Exact min-cut oracle and capacity minimization over collectors/instances.

Rational capacities are cleared to integers by their common denominator
before running max-flow, so results are exact.  Infinite edges are given
capacity one more than the total finite capacity: a computed flow above
that total certifies an infinite min cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import kernels
from .model import (DataCollectorSpec, Instance, SystemParams,
                    enumerate_collectors, enumerate_instances, require_valid)
from .flowgraph import INF, FlowGraph, build_graph, cut_capacity


@dataclass(frozen=True)
class MinCutResult:
    value: object  # Fraction | INF
    cut: frozenset


@dataclass(frozen=True)
class CapacityReport:
    value: Fraction
    witness_collector: DataCollectorSpec
    witness_instance: Instance
    truncated: bool


def max_flow_min_cut(g: FlowGraph) -> MinCutResult:
    """Exact min-cut value of g and a witness cut (source side)."""
    idx = {v: i for i, v in enumerate(sorted(g.vertices))}
    denom = lcm(*[cap.denominator for _, _, cap in g.edges if cap is not INF],
                1)
    finite_total = sum(int(cap * denom) for _, _, cap in g.edges
                       if cap is not INF)
    big = finite_total + 1
    int_edges = [(idx[u], idx[v], big if cap is INF else int(cap * denom))
                 for u, v, cap in g.edges]
    flow, reach = kernels.max_flow(len(idx), int_edges,
                                   idx[g.source], idx[g.sink])
    cut = frozenset(v for v, i in idx.items() if reach[i])
    value = INF if flow > finite_total else Fraction(flow, denom)
    return MinCutResult(value=value, cut=cut)


def brute_force_min_cut(g: FlowGraph) -> MinCutResult:
    """Independent oracle: minimum cut capacity over all 2^(|V|-2) cuts."""
    mids = sorted(g.vertices - {g.source, g.sink})
    if len(mids) > 22:
        raise ValueError("brute force limited to 22 intermediate vertices")
    bit = {v: i for i, v in enumerate(mids)}
    # edge -> (tail bit or -1 for source, head bit or -1 for sink, capacity)
    packed = [(-1 if u == g.source else bit[u],
               -1 if v == g.sink else bit[v], cap)
              for u, v, cap in g.edges]
    best = None
    best_mask = None
    for mask in range(1 << len(mids)):
        total = Fraction(0)
        for ub, vb, cap in packed:
            if (ub < 0 or mask >> ub & 1) and not (vb >= 0 and mask >> vb & 1):
                if cap is INF:
                    total = INF
                    break
                total += cap
        if total is INF:
            continue
        if best is None or total < best:
            best = total
            best_mask = mask
    if best is None:
        return MinCutResult(value=INF, cut=frozenset({g.source}))
    cut = frozenset({g.source} | {v for v in mids if best_mask >> bit[v] & 1})
    return MinCutResult(value=best, cut=cut)


def _collector_key(dc: DataCollectorSpec):
    return (dc.s, tuple(sorted(dc.K)))


def instance_capacity(inst: Instance) -> CapacityReport:
    """Minimum min-cut over every legitimate collector of inst."""
    best = None
    witness = None
    for dc in sorted(enumerate_collectors(inst), key=_collector_key):
        value = max_flow_min_cut(build_graph(inst, dc)).value
        if best is None or value < best:
            best = value
            witness = dc
    return CapacityReport(value=best, witness_collector=witness,
                          witness_instance=inst, truncated=False)


def storage_capacity(p: SystemParams, limit: int | None = None,
                     canonical: bool = True,
                     scope: str = "enumerate") -> CapacityReport:
    """Minimize instance capacity over an instance scope.

    scope="enumerate": instances from enumerate_instances (canonical
    symmetry reduction by default, optional limit; the report flags
    truncation when the limit cut the stream short).
    scope="adversarial": only the tightness-certifying instance (requires
    n >= k + 2r); by construction its value equals the closed-form bound.
    """
    require_valid(p)
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if scope == "adversarial":
        from .capacity_bound import adversarial_instance, c_lb
        inst, _, _ = adversarial_instance(p, c_lb(p).argmin)
        return instance_capacity(inst)
    if scope != "enumerate":
        raise ValueError(f"unknown scope {scope!r}")

    gen = enumerate_instances(p, canonical=canonical)
    truncated = False
    best = None
    for i, inst in enumerate(gen):
        if limit is not None and i >= limit:
            truncated = True
            break
        report = instance_capacity(inst)
        if best is None or report.value < best.value:
            best = report
    return CapacityReport(value=best.value,
                          witness_collector=best.witness_collector,
                          witness_instance=best.witness_instance,
                          truncated=truncated)
