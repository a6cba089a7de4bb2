"""Random linear network coding simulation of broadcast repair.

Packets are tracked only by their coefficient vectors over GF(2^w)
relative to the B original file packets.  A data collector decodes iff the
stacked coefficient matrix of its k nodes has rank B.  Every trial is
driven by a single seed through Python's Mersenne Twister; trial t uses the
derived seed string "<seed>:<t>" so trials are independent and
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .model import (DataCollectorSpec, Instance, RepairRound, SystemParams,
                    enumerate_collectors, instance_violations, require_valid)
from .flowgraph import build_graph
from .mincut import max_flow_min_cut

# Fixed primitive polynomials (hex, including the leading term).
PRIMITIVE_POLY = {4: 0x13, 8: 0x11D, 16: 0x1100B}


class GF:
    """GF(2^w) arithmetic via log/antilog tables, w in {4, 8, 16}."""

    def __init__(self, w: int = 8):
        if w not in PRIMITIVE_POLY:
            raise ValueError(f"unsupported field width {w}; choose 4, 8 or 16")
        self.w = w
        self.order = 1 << w
        poly = PRIMITIVE_POLY[w]
        q1 = self.order - 1
        self.exp = [0] * (2 * q1)
        self.log = [0] * self.order
        x = 1
        for i in range(q1):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & self.order:
                x ^= poly
        for i in range(q1, 2 * q1):
            self.exp[i] = self.exp[i - q1]

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.exp[self.order - 1 - self.log[a]]

    def rank(self, rows) -> int:
        """Rank of a matrix given as a list of equal-length rows."""
        if not rows:
            return 0
        ncols = len(rows[0])
        flat = [v for row in rows for v in row]
        return kernels.gf_rank(flat, len(rows), ncols,
                               self.exp, self.log, self.order)


@lru_cache(maxsize=None)
def field(w: int) -> GF:
    """The shared GF(2^w); its tables are built once per width."""
    return GF(w)


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams  # alpha and beta must be integers here
    B: int
    field_w: int = 8
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        require_valid(self.params)
        if self.params.alpha.denominator != 1 or self.params.beta.denominator != 1:
            raise ValueError("simulation requires integer alpha and beta")
        if self.B < 0:
            raise ValueError("B must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _rand_vector(gf: GF, length: int, rng: random.Random) -> list:
    return [rng.randrange(gf.order) for _ in range(length)]


def _combine(gf: GF, packets, coeffs) -> list:
    length = len(packets[0])
    out = [0] * length
    for c, pkt in zip(coeffs, packets):
        if c == 0:
            continue
        lc = gf.log[c]
        for j, v in enumerate(pkt):
            if v:
                out[j] ^= gf.exp[lc + gf.log[v]]
    return out


def init_storage(cfg: SimConfig, rng: random.Random, gf: GF) -> dict:
    """Each of the n nodes stores alpha uniform random coefficient vectors."""
    alpha = int(cfg.params.alpha)
    return {j: [_rand_vector(gf, cfg.B, rng) for _ in range(alpha)]
            for j in range(1, cfg.params.n + 1)}


def run_repair_round(state: dict, rnd: RepairRound, cfg: SimConfig,
                     rng: random.Random, gf: GF) -> dict:
    """One broadcast repair round.

    Each helper emits beta random combinations of its stored packets; the
    emission reaches every newcomer of the round (one transmission, r
    receptions).  Each newcomer stores alpha random combinations of the
    d*beta received packets.  Failed nodes are dropped.
    """
    alpha = int(cfg.params.alpha)
    beta = int(cfg.params.beta)
    for i in sorted(rnd.helpers):
        if i not in state:
            raise ValueError(f"helper {i} is not active")
    broadcast = []
    for i in sorted(rnd.helpers):
        stored = state[i]
        for _ in range(beta):
            coeffs = _rand_vector(gf, len(stored), rng)
            broadcast.append(_combine(gf, stored, coeffs)
                             if stored else [0] * cfg.B)
    new_state = {j: pkts for j, pkts in state.items() if j not in rnd.failed}
    for j in sorted(rnd.newcomers):
        pkts = []
        for _ in range(alpha):
            coeffs = _rand_vector(gf, len(broadcast), rng)
            pkts.append(_combine(gf, broadcast, coeffs)
                        if broadcast else [0] * cfg.B)
        new_state[j] = pkts
    return new_state


def collector_rank(state: dict, dc: DataCollectorSpec, gf: GF) -> int:
    rows = [row for j in sorted(dc.K) for row in state[j]]
    return gf.rank(rows)


def dc_decodable(state: dict, dc: DataCollectorSpec, B: int, gf: GF) -> bool:
    """True iff the collector's stacked coefficient matrix, over the field
    gf the data was coded with, has rank B."""
    if B == 0:
        return True
    return collector_rank(state, dc, gf) >= B


def _random_instance(p: SystemParams, rng: random.Random) -> Instance:
    """Sample a uniformly random valid instance (failures and helpers)."""
    from .model import newcomer_ids
    active = set(range(1, p.n + 1))
    rounds = []
    for s in range(1, p.T + 1):
        failed = frozenset(rng.sample(sorted(active), p.r))
        survivors = active - failed
        helpers = frozenset(rng.sample(sorted(survivors), p.d))
        newcomers = frozenset(newcomer_ids(p, s))
        rounds.append(RepairRound(s, failed, newcomers, helpers))
        active = survivors | newcomers
    inst = Instance(p, tuple(rounds))
    assert not instance_violations(inst)
    return inst


def achievability_experiment(cfg: SimConfig,
                             instance_source: str = "adversarial",
                             instance: Instance | None = None) -> dict:
    """Run seeded decode trials and check the rank/min-cut hard invariant.

    For every collector and every trial, the coefficient rank can never
    exceed the collector's exact min cut; any violation is recorded (and
    means a bug, not bad luck).  Decode success per collector is the
    statistical side: rate of trials reaching rank B.
    """
    p = cfg.params
    master = random.Random(f"{cfg.seed}:setup")
    if instance is not None:
        inst = instance
    elif instance_source == "adversarial":
        from .capacity_bound import adversarial_instance, c_lb
        inst, _, _ = adversarial_instance(p, c_lb(p).argmin)
    elif instance_source == "random":
        inst = _random_instance(p, master)
    else:
        raise ValueError(f"unknown instance source {instance_source!r}")

    gf = field(cfg.field_w)
    collectors = sorted(enumerate_collectors(inst),
                        key=lambda dc: (dc.s, tuple(sorted(dc.K))))
    cuts = {dc: max_flow_min_cut(build_graph(inst, dc)).value
            for dc in collectors}

    successes = {dc: 0 for dc in collectors}
    violations = []
    for t in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{t}")
        state = init_storage(cfg, rng, gf)
        per_round_state = {0: state}
        for rnd in inst.rounds:
            state = run_repair_round(state, rnd, cfg, rng, gf)
            per_round_state[rnd.s] = state
        for dc in collectors:
            rank = collector_rank(per_round_state[dc.s], dc, gf)
            if rank > cuts[dc]:
                violations.append({"trial": t, "collector": (dc.s, sorted(dc.K)),
                                   "rank": rank, "min_cut": str(cuts[dc])})
            if rank >= cfg.B:
                successes[dc] += 1

    per_collector = {
        f"{dc.s}:{','.join(map(str, sorted(dc.K)))}":
            {"decodable_rate": successes[dc] / cfg.trials,
             "min_cut": str(cuts[dc])}
        for dc in collectors
    }
    rates = [successes[dc] / cfg.trials for dc in collectors]
    return {
        "config": {"params": {"n": p.n, "k": p.k, "d": p.d, "r": p.r,
                              "alpha": str(p.alpha), "beta": str(p.beta),
                              "T": p.T},
                   "B": cfg.B, "field_w": cfg.field_w,
                   "trials": cfg.trials, "seed": cfg.seed,
                   "instance_source": instance_source},
        "per_collector": per_collector,
        "min_rate": min(rates),
        "mean_rate": sum(rates) / len(rates),
        "violations": violations,
    }
