"""Closed-form storage capacity bound, its tightness certificate, and the
horizon truncation check.

The bound is the exact minimum of

    x0*alpha + sum_{s in T1} x_s*alpha
             + sum_{s in T2} max(0, d - sum_{i<s} m*_i)*beta

over subsets T1 of {1..T} (T2 its complement) and integer vectors x with
0 <= x0 <= n, 0 <= x_s <= r, and

    k <= x0 + sum_{T1} x_s + |T2|*r <= k + r,

where m*_0 = x0, m*_s = x_s on T1 and m*_s = r on T2.  Each feasible
profile contributes a linear form a*alpha + b*beta; the bound is their
minimum.  The search space is tiny because |T2| <= (k+r)/r and the x-sum
is capped at k+r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .model import (DataCollectorSpec, Instance, RepairRound, SystemParams,
                    instance_violations, newcomer_ids, require_valid)
from .flowgraph import (INF, FlowGraph, SOURCE, aux_v, cut_capacity, dc_v,
                        in_v, out_v, round_contribution)


@dataclass(frozen=True)
class CutProfile:
    """Minimization variables: T1 with per-round x values, plus x0."""

    T1: frozenset
    x0: int
    x: tuple  # ((s, x_s), ...) sorted by s

    def x_map(self) -> dict:
        return dict(self.x)

    def m_star(self, T: int, r: int) -> dict:
        xm = self.x_map()
        m = {0: self.x0}
        for s in range(1, T + 1):
            m[s] = xm[s] if s in self.T1 else r
        return m


@dataclass(frozen=True)
class BoundResult:
    value: Fraction
    argmin: CutProfile
    linear_form: tuple  # (a, b): value == a*alpha + b*beta


def effective_horizon(p: SystemParams) -> int:
    """Horizon at which the bound saturates: min(T, k + r)."""
    require_valid(p)
    return min(p.T, p.k + p.r)


def _profile_key(prof: CutProfile):
    return (len(prof.T1), tuple(sorted(prof.T1)), prof.x0,
            tuple(v for _, v in prof.x))


def enumerate_profiles(n: int, k: int, d: int, r: int,
                       T: int) -> Iterator[tuple]:
    """Yield (profile, a, b) for every feasible profile at horizon T."""
    rounds = list(range(1, T + 1))
    for t2_size in range(0, min(T, (k + r) // r) + 1):
        lo = max(0, k - t2_size * r)
        hi = k + r - t2_size * r
        if hi < 0:
            continue
        for T2 in combinations(rounds, t2_size):
            T2set = frozenset(T2)
            T1 = [s for s in rounds if s not in T2set]

            def rec(i, xs, total):
                if i == len(T1):
                    if total < lo:
                        return
                    yield xs
                    return
                for v in range(0, min(r, hi - total) + 1):
                    yield from rec(i + 1, xs + ((T1[i], v),), total + v)

            for x0 in range(0, min(n, hi) + 1):
                for xs in rec(0, (), x0):
                    xm = dict(xs)
                    a = x0 + sum(xm.values())
                    b = 0
                    cum = x0
                    for s in rounds:
                        if s in T2set:
                            b += max(0, d - cum)
                            cum += r
                        else:
                            cum += xm[s]
                    yield CutProfile(frozenset(T1), x0, xs), a, b


def profile_forms(n: int, k: int, d: int, r: int, T: int) -> list:
    """Distinct linear forms (a, b) of all feasible profiles, sorted."""
    return sorted({(a, b) for _, a, b in enumerate_profiles(n, k, d, r, T)})


def c_lb(p: SystemParams, horizon: int | None = None) -> BoundResult:
    """Exact lower bound on storage capacity at the given horizon.

    By default the horizon is min(T, k+r); pass horizon explicitly to
    bypass the truncation (used by verify_truncation so the saturation
    property is tested rather than assumed).
    """
    require_valid(p)
    T = effective_horizon(p) if horizon is None else horizon
    best = None
    for prof, a, b in enumerate_profiles(p.n, p.k, p.d, p.r, T):
        value = a * p.alpha + b * p.beta
        key = (value, _profile_key(prof))
        if best is None or key < best[0]:
            best = (key, prof, a, b)
    (value, _), prof, a, b = best
    return BoundResult(value=value, argmin=prof, linear_form=(a, b))


def verify_truncation(p: SystemParams, extra: int) -> dict:
    """Evaluate the bound by raw enumeration at horizons k+r .. k+r+extra
    and report whether all values coincide (numerical stand-in for the
    saturation claim, whose proof is not spelled out)."""
    require_valid(p)
    base = p.k + p.r
    if p.T < base:
        raise ValueError(f"requires T >= k + r = {base}")
    horizons = list(range(base, base + extra + 1))
    values = [c_lb(p, horizon=h).value for h in horizons]
    return {"horizons": horizons, "values": values,
            "all_equal": len(set(values)) == 1}


def _extend_profile(prof: CutProfile, from_T: int, to_T: int) -> CutProfile:
    """Extend an argmin profile from horizon from_T to to_T rounds by
    putting the extra rounds in T1 with x = 0 (value-preserving)."""
    if to_T <= from_T:
        return prof
    extra = range(from_T + 1, to_T + 1)
    return CutProfile(prof.T1 | frozenset(extra), prof.x0,
                      tuple(sorted(prof.x + tuple((s, 0) for s in extra))))


def adversarial_instance(p: SystemParams, prof: CutProfile):
    """Construct the tightness-certifying (instance, cut, collector).

    Requires n >= k + 2r.  prof is interpreted at horizon
    effective_horizon(p) (where c_lb computes it) and is extended to T
    rounds by adding value-free T1 rounds.  Failures and survivors follow
    the optimal profile: the initial nodes fail lowest-index first; in a T1 round s,
    r - x_s of that round's newcomers fail (lowest-index) so x_s survive;
    in a T2 round all r failures come from the initial nodes.  Helpers are
    drawn from the survivor sets M_0, M_1, ... in order, topped up with
    the lowest-index active initial nodes.  The returned cut's capacity
    equals the closed-form bound exactly.
    """
    require_valid(p)
    if p.n < p.k + 2 * p.r:
        raise ValueError(f"requires n >= k + 2r = {p.k + 2 * p.r}")
    T = p.T
    prof = _extend_profile(prof, effective_horizon(p), T)
    xm = prof.x_map()
    T1 = prof.T1
    T2 = frozenset(range(1, T + 1)) - T1

    # Stage-by-stage failures.  Stage s-1 failures trigger round s.
    next_init = 1  # next initial node scheduled to fail

    def take_init(count):
        nonlocal next_init
        ids = list(range(next_init, next_init + count))
        next_init += count
        return ids

    failed_by_round = {}
    survivors = {}  # M_s for s >= 1
    if T >= 1:
        failed_by_round[1] = frozenset(take_init(p.r))
    for s in range(1, T + 1):
        R_s = sorted(newcomer_ids(p, s))
        if s in T1:
            fail_r = R_s[: p.r - xm[s]]
            survivors[s] = R_s[p.r - xm[s]:]
            if s + 1 <= T:
                failed_by_round[s + 1] = frozenset(fail_r + take_init(xm[s]))
        else:
            survivors[s] = R_s
            if s + 1 <= T:
                failed_by_round[s + 1] = frozenset(take_init(p.r))

    M0 = list(range(next_init, next_init + prof.x0))
    assert next_init + prof.x0 - 1 <= p.n
    M = {0: M0, **survivors}

    rounds = []
    for s in range(1, T + 1):
        failed = failed_by_round[s]
        pool = []
        for j in range(s):
            pool.extend(M[j])
        helpers = pool[: p.d]
        if len(helpers) < p.d:
            failed_so_far = set()
            for i in range(1, s + 1):
                failed_so_far |= failed_by_round[i]
            fill = [j for j in range(1, p.n + 1)
                    if j not in failed_so_far and j not in helpers]
            helpers.extend(fill[: p.d - len(helpers)])
        rounds.append(RepairRound(s, failed, frozenset(newcomer_ids(p, s)),
                                  frozenset(helpers)))

    inst = Instance(p, tuple(rounds))
    bad = instance_violations(inst)
    assert not bad, bad

    members = sorted({j for js in M.values() for j in js})
    assert len(members) >= p.k
    K = frozenset(members[: p.k])
    dc = DataCollectorSpec(T, K)

    # Cut: survivor out-vertices (and, in T2 rounds, everything) go to the
    # sink side; the rest of the graph stays on the source side.
    sink_side = {dc_v(T, K)}
    for s in range(0, T + 1):
        if s == 0 or s in T1:
            sink_side |= {out_v(j) for j in M[s]}
        else:
            rnd = rounds[s - 1]
            sink_side |= {aux_v(i, s) for i in sorted(rnd.helpers)}
            sink_side |= {in_v(j) for j in sorted(rnd.newcomers)}
            sink_side |= {out_v(j) for j in sorted(rnd.newcomers)}
    return inst, sink_side, dc


@dataclass(frozen=True)
class CutCaseTerms:
    """Per-round case analysis of a concrete finite cut."""

    t1_rounds: frozenset  # rounds with some auxiliary vertex on the source side
    t2_rounds: frozenset
    x: dict   # s -> out-vertices on sink side (s = 0 and T1 rounds)
    z: dict   # T1 rounds: aux on sink side with parent on source side
    y: dict   # T2 rounds: aux with parent out-vertex on source side
    v: dict   # T2 rounds: out on sink side with in-vertex on source side
    m: dict   # every round: out-vertices on sink side
    contributions: dict  # s -> per-round cut capacity contribution
    capacity: Fraction
    canonical_capacity: Fraction


def case_terms(g: FlowGraph, X) -> CutCaseTerms:
    """Extract the per-round cut terms and certify the case formulas.

    Also builds the canonicalized cut (auxiliaries pulled to the source
    side in T1 rounds, newcomer in-vertices pushed out in T2 rounds) and
    checks it never increases capacity.
    """
    cap = cut_capacity(g, X)
    if cap is INF:
        raise ValueError("case analysis requires a finite-capacity cut")
    p = g.inst.params
    t1, t2 = set(), set()
    x, z, y, v, m = {}, {}, {}, {}, {}
    contributions = {}

    outs0 = [out_v(j) for j in range(1, p.n + 1)]
    x[0] = sum(1 for ov in outs0 if ov not in X)
    m[0] = x[0]
    contributions[0] = round_contribution(g, X, 0)
    assert contributions[0] == x[0] * p.alpha

    for rnd in g.inst.rounds:
        s = rnd.s
        auxes = [(i, aux_v(i, s)) for i in sorted(rnd.helpers)]
        newcomers = sorted(rnd.newcomers)
        m[s] = sum(1 for j in newcomers if out_v(j) not in X)
        contributions[s] = round_contribution(g, X, s)
        if any(a in X for _, a in auxes):
            t1.add(s)
            assert all(in_v(j) in X for j in newcomers), \
                "finite cut must keep newcomer in-vertices on the source side"
            z[s] = sum(1 for i, a in auxes if a not in X and out_v(i) in X)
            x[s] = m[s]
            assert contributions[s] == x[s] * p.alpha + z[s] * p.beta
        else:
            t2.add(s)
            y[s] = sum(1 for i, _ in auxes if out_v(i) in X)
            v[s] = sum(1 for j in newcomers
                       if out_v(j) not in X and in_v(j) in X)
            assert 0 <= m[s] <= p.r
            assert contributions[s] == v[s] * p.alpha + y[s] * p.beta

    X2 = set(X)
    for rnd in g.inst.rounds:
        if rnd.s in t1:
            X2 |= {aux_v(i, rnd.s) for i in rnd.helpers}
        else:
            X2 -= {in_v(j) for j in rnd.newcomers}
    cap2 = cut_capacity(g, X2)
    assert cap2 is not INF and cap2 <= cap, \
        "canonicalized cut must not increase capacity"

    return CutCaseTerms(t1_rounds=frozenset(t1), t2_rounds=frozenset(t2),
                        x=x, z=z, y=y, v=v, m=m, contributions=contributions,
                        capacity=cap, canonical_capacity=cap2)
