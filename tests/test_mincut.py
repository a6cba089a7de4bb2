import random
from fractions import Fraction

import pytest

from wdss.demo import example_instance
from wdss.model import (DataCollectorSpec, SystemParams, enumerate_collectors,
                        enumerate_instances)
from wdss.flowgraph import INF, build_graph, cut_capacity
from wdss.mincut import (brute_force_min_cut, instance_capacity,
                         max_flow_min_cut, storage_capacity)
from wdss.capacity_bound import c_lb

from conftest import random_instance, random_params


def first_collector(inst):
    return next(iter(enumerate_collectors(inst)))


class TestMaxFlowMinCut:
    def test_example_value(self):
        inst = example_instance()
        g = build_graph(inst, DataCollectorSpec(2, frozenset({9, 11, 12})))
        res = max_flow_min_cut(g)
        # frozen: computed independently by the brute-force cut oracle
        assert res.value == Fraction(3)
        assert cut_capacity(g, res.cut) == res.value

    def test_t0_is_k_alpha(self):
        p = SystemParams(5, 2, 3, 1, Fraction(7, 3), Fraction(1), 0)
        (inst,) = enumerate_instances(p)
        g = build_graph(inst, DataCollectorSpec(0, frozenset({2, 4})))
        assert max_flow_min_cut(g).value == 2 * Fraction(7, 3)

    def test_zero_alpha_gives_zero(self):
        inst = example_instance(alpha=0, beta=1)
        g = build_graph(inst, DataCollectorSpec(2, frozenset({9, 11, 12})))
        assert max_flow_min_cut(g).value == 0

    def test_witness_cut_achieves_value(self):
        rng = random.Random(21)
        for _ in range(15):
            p = random_params(rng)
            inst = random_instance(p, rng)
            g = build_graph(inst, first_collector(inst))
            res = max_flow_min_cut(g)
            assert cut_capacity(g, res.cut) == res.value

    def test_agrees_with_brute_force(self):
        rng = random.Random(22)
        for _ in range(25):
            p = random_params(rng)
            inst = random_instance(p, rng)
            g = build_graph(inst, first_collector(inst))
            assert max_flow_min_cut(g).value == brute_force_min_cut(g).value

    def test_value_below_every_cut(self):
        rng = random.Random(23)
        inst = example_instance(Fraction(1, 3), Fraction(2, 5))
        g = build_graph(inst, DataCollectorSpec(2, frozenset({9, 11, 12})))
        value = max_flow_min_cut(g).value
        mids = sorted(g.vertices - {g.source, g.sink})
        for _ in range(100):
            X = {g.source} | {v for v in mids if rng.random() < 0.5}
            c = cut_capacity(g, X)
            assert c is INF or value <= c

    def test_homogeneous_in_alpha_beta(self):
        inst1 = example_instance(Fraction(1, 2), Fraction(3, 4))
        inst2 = example_instance(Fraction(1, 2) * 6, Fraction(3, 4) * 6)
        dc = DataCollectorSpec(2, frozenset({9, 11, 12}))
        v1 = max_flow_min_cut(build_graph(inst1, dc)).value
        v2 = max_flow_min_cut(build_graph(inst2, dc)).value
        assert v2 == 6 * v1

    def test_huge_denominators_use_python_kernel(self):
        # capacities that overflow 62-bit integers after scaling
        big = (1 << 70) + 1
        dc = DataCollectorSpec(2, frozenset({9, 11, 12}))
        inst = example_instance(Fraction(1, big), Fraction(1, 3))
        g = build_graph(inst, dc)
        res = max_flow_min_cut(g)
        assert cut_capacity(g, res.cut) == res.value
        # cross-check against the scaled graph, which fits the fast kernel
        scaled = build_graph(example_instance(3, big), dc)
        assert 3 * big * res.value == max_flow_min_cut(scaled).value


class TestInstanceCapacity:
    def test_t0(self):
        p = SystemParams(4, 2, 2, 1, Fraction(5), Fraction(1), 0)
        (inst,) = enumerate_instances(p)
        assert instance_capacity(inst).value == 10

    def test_example_instance(self):
        report = instance_capacity(example_instance())
        # frozen: full enumeration over all 168 collectors
        assert report.value == 3
        assert not report.truncated

    def test_zero_beta_starves_newcomers(self):
        inst = example_instance(alpha=1, beta=0)
        report = instance_capacity(inst)
        assert report.value <= (inst.params.k - 1) * inst.params.alpha
        # the witness must touch a newcomer
        assert any(j > 8 for j in report.witness_collector.K)


class TestStorageCapacity:
    def test_full_scope_matches_bound(self):
        p = SystemParams(5, 2, 3, 1, Fraction(1), Fraction(1), 1)
        report = storage_capacity(p, canonical=False)
        assert report.value == c_lb(p).value
        assert not report.truncated

    def test_canonical_scope_matches_full(self):
        p = SystemParams(5, 2, 3, 1, Fraction(1), Fraction(2, 3), 1)
        full = storage_capacity(p, canonical=False)
        reduced = storage_capacity(p, canonical=True)
        assert full.value == reduced.value

    def test_t0(self):
        p = SystemParams(5, 2, 3, 1, Fraction(3, 7), Fraction(1), 0)
        assert storage_capacity(p).value == 2 * Fraction(3, 7)

    def test_adversarial_scope(self):
        p = SystemParams(8, 3, 4, 2, Fraction(1), Fraction(1, 4), 2)
        report = storage_capacity(p, scope="adversarial")
        assert report.value == Fraction(3, 2)

    def test_truncation_flag(self):
        p = SystemParams(5, 2, 3, 1, Fraction(1), Fraction(1), 1)
        report = storage_capacity(p, limit=3, canonical=False)
        assert report.truncated

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        p = SystemParams(5, 2, 3, 1, Fraction(1), Fraction(1), 1)
        with pytest.raises(ValueError, match="limit"):
            storage_capacity(p, limit=limit)

    def test_never_below_bound(self):
        rng = random.Random(31)
        for _ in range(6):
            p = random_params(rng)
            report = storage_capacity(p, limit=10, canonical=True)
            assert report.value >= c_lb(p).value
