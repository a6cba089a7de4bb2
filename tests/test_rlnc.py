import random
from fractions import Fraction

import pytest

from wdss import _kernels_py
from wdss.demo import example_instance
from wdss.model import DataCollectorSpec, SystemParams
from wdss.rlnc import (GF, SimConfig, achievability_experiment,
                       collector_rank, dc_decodable, field, init_storage,
                       run_repair_round)


def int_params(n=8, k=3, d=4, r=2, alpha=2, beta=1, T=2):
    return SystemParams(n, k, d, r, Fraction(alpha), Fraction(beta), T)


class TestField:
    def test_ring_axioms_exhaustive_gf16(self):
        gf = GF(4)
        els = range(16)
        for a in els:
            for b in els:
                assert gf.mul(a, b) == gf.mul(b, a)
                assert gf.add(a, b) == gf.add(b, a)
                for c in els:
                    assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
                    assert gf.mul(a, gf.add(b, c)) == \
                        gf.add(gf.mul(a, b), gf.mul(a, c))

    def test_inverses_gf16(self):
        gf = GF(4)
        for a in range(1, 16):
            assert gf.mul(a, gf.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)

    def test_multiplicative_group_is_cyclic_gf256(self):
        gf = GF(8)
        seen = set()
        x = 1
        for _ in range(255):
            seen.add(x)
            x = gf.mul(x, 2)
        assert len(seen) == 255  # 2 generates, so the polynomial is primitive

    def test_supported_widths(self):
        for w in (4, 8, 16):
            assert GF(w).order == 1 << w
        with pytest.raises(ValueError):
            GF(5)


class TestRank:
    def naive_rank(self, gf, rows):
        # reference elimination, independent of the kernels
        rows = [list(r) for r in rows]
        rank = 0
        cols = len(rows[0]) if rows else 0
        for col in range(cols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), -1)
            if piv < 0:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = gf.inv(rows[rank][col])
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = gf.mul(rows[i][col], inv)
                    rows[i] = [gf.add(v, gf.mul(f, pv))
                               for v, pv in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    def test_kernels_agree_with_naive(self):
        rng = random.Random(1)
        gf = GF(8)
        for _ in range(40):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randrange(256) for _ in range(nc)]
                    for _ in range(nr)]
            expected = self.naive_rank(gf, rows)
            assert gf.rank(rows) == expected
            flat = [v for row in rows for v in row]
            assert _kernels_py.gf_rank(flat, nr, nc, gf.exp, gf.log,
                                       gf.order) == expected

    def test_identity_and_zero(self):
        gf = GF(8)
        assert gf.rank([[1, 0], [0, 1]]) == 2
        assert gf.rank([[0, 0], [0, 0]]) == 0
        assert gf.rank([]) == 0


class TestSimulation:
    def test_init_storage_shape(self):
        cfg = SimConfig(int_params(), B=5, seed=3)
        state = init_storage(cfg, random.Random(0), field(8))
        assert sorted(state) == list(range(1, 9))
        assert all(len(pkts) == 2 and len(pkts[0]) == 5
                   for pkts in state.values())

    def test_full_storage_decodes(self):
        # k*alpha = B = 6: a random 6x6 matrix over GF(256) is a.s. invertible
        cfg = SimConfig(int_params(alpha=2, T=0), B=6, seed=5)
        ok = 0
        for t in range(100):
            state = init_storage(cfg, random.Random(f"t{t}"), field(8))
            if dc_decodable(state, DataCollectorSpec(0, frozenset({1, 2, 3})),
                            6, field(8)):
                ok += 1
        assert ok >= 99

    def test_wide_field_decodes_over_its_own_field(self):
        # GF(2^16) data holds entries past GF(2^8), so it must be ranked
        # over the field it was coded with
        cfg = SimConfig(int_params(alpha=2, T=0), B=6, field_w=16, seed=5)
        dc = DataCollectorSpec(0, frozenset({1, 2, 3}))
        state = init_storage(cfg, random.Random("w16"), field(16))
        assert max(v for pkts in state.values() for p in pkts for v in p) > 255
        assert dc_decodable(state, dc, 6, field(16))
        with pytest.raises(IndexError):
            dc_decodable(state, dc, 6, field(8))

    def test_field_is_built_once_per_width(self):
        assert field(16) is field(16)
        assert field(4) is not field(8)
        assert field(8).order == 256

    def test_zero_alpha_cannot_decode(self):
        cfg = SimConfig(int_params(alpha=0, beta=1, T=0), B=1, seed=0)
        state = init_storage(cfg, random.Random(0), field(8))
        assert not dc_decodable(state, DataCollectorSpec(0, frozenset({1, 2, 3})),
                                1, field(8))

    def test_b_zero_always_decodable(self):
        cfg = SimConfig(int_params(T=0), B=0, seed=0)
        state = init_storage(cfg, random.Random(0), field(8))
        assert dc_decodable(state, DataCollectorSpec(0, frozenset({1, 2, 3})), 0,
                            field(8))

    def test_b_above_k_alpha_never_decodable(self):
        cfg = SimConfig(int_params(), B=7, seed=0)  # k*alpha = 6 < 7
        state = init_storage(cfg, random.Random(0), field(8))
        assert not dc_decodable(state, DataCollectorSpec(0, frozenset({1, 2, 3})),
                                7, field(8))

    def test_zero_beta_newcomers_store_nothing(self):
        cfg = SimConfig(int_params(beta=0), B=4, seed=0)
        rng = random.Random(0)
        state = init_storage(cfg, rng, field(8))
        state = run_repair_round(state, example_instance(2, 0).rounds[0],
                                 cfg, rng, field(8))
        assert all(all(v == 0 for v in pkt)
                   for j in (9, 10) for pkt in state[j])

    def test_newcomer_rank_capped_by_received(self):
        # d*beta = 4 received packets but alpha = 6 stored
        cfg = SimConfig(int_params(alpha=6, beta=1), B=8, seed=0)
        rng = random.Random(1)
        state = init_storage(cfg, rng, field(8))
        state = run_repair_round(state, example_instance(6, 1).rounds[0],
                                 cfg, rng, field(8))
        assert field(8).rank(state[9]) <= 4

    def test_inactive_helper_rejected(self):
        from wdss.model import RepairRound
        cfg = SimConfig(int_params(), B=5, seed=0)
        rng = random.Random(0)
        state = init_storage(cfg, rng, field(8))
        inst = example_instance(2, 1)
        state = run_repair_round(state, inst.rounds[0], cfg, rng, field(8))
        bad = RepairRound(2, frozenset({8, 10}), frozenset({11, 12}),
                          frozenset({5, 3, 4, 7}))  # node 5 already failed
        with pytest.raises(ValueError):
            run_repair_round(state, bad, cfg, rng, field(8))

    def test_requires_integer_amounts(self):
        with pytest.raises(ValueError):
            SimConfig(int_params(alpha=Fraction(1, 2)), B=3, seed=0)


class TestExperiment:
    def test_reproducible(self):
        cfg = SimConfig(int_params(), B=5, trials=5, seed=9)
        a = achievability_experiment(cfg, "adversarial")
        b = achievability_experiment(cfg, "adversarial")
        assert a == b

    def test_seed_changes_outcomes(self):
        base = SimConfig(int_params(), B=5, trials=5, seed=9)
        other = SimConfig(int_params(), B=5, trials=5, seed=10)
        ra = achievability_experiment(base, "adversarial")
        rb = achievability_experiment(other, "adversarial")
        assert ra["config"] != rb["config"]

    def test_rank_never_exceeds_min_cut(self):
        for seed in (0, 1):
            cfg = SimConfig(int_params(), B=6, trials=4, seed=seed)
            rep = achievability_experiment(cfg, "random")
            assert rep["violations"] == []

    def test_impossible_file_size_never_decodes(self):
        # B above k*alpha exceeds every collector's min cut
        cfg = SimConfig(int_params(), B=7, trials=3, seed=2)
        rep = achievability_experiment(cfg, "adversarial")
        assert rep["violations"] == []
        assert all(c["decodable_rate"] == 0.0
                   for c in rep["per_collector"].values())
