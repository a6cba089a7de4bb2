"""Both kernel backends against the pure-Python reference.

The dispatcher cases run on whichever backend `wdss.kernels` serves; the
compiled-only cases skip when the extension is not built.
"""

import random

import pytest

from wdss import _kernels_py, kernels
from wdss.rlnc import field

# around the 62-bit limit the old dispatcher used and the 64-bit one the
# compiled kernel has
BOUNDARY_CAPS = [(1 << 62) - 1, 1 << 62, (1 << 63) - 1, 1 << 63]


def random_graph(rng, caps):
    n = rng.randint(2, 10)
    edges = [(rng.randrange(n), rng.randrange(n), rng.choice(caps))
             for _ in range(rng.randint(0, 25))]
    s, t = rng.sample(range(n), 2)
    return n, edges, s, t


def boundary_graphs(count=300):
    rng = random.Random("boundary")
    return [random_graph(rng, BOUNDARY_CAPS + [0, 1, 7]) for _ in range(count)]


def parallel_paths(cap, paths):
    """paths disjoint two-edge paths from 0 to 1, each carrying cap."""
    edges = []
    for i in range(paths):
        edges += [(0, 2 + i, cap), (2 + i, 1, cap)]
    return 2 + paths, edges, 0, 1


def random_matrices(w, count=120):
    """Seeded matrices over GF(2^w), some with a repeated row, then empty
    and all-zero ones."""
    rng = random.Random(f"matrices:{w}")
    gf = field(w)
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        mat = [rng.randrange(gf.order) if rng.random() < 0.7 else 0
               for _ in range(rows * cols)]
        if rows > 2 and rng.random() < 0.4:
            mat = mat[:cols] * 2 + mat[2 * cols:]  # repeat the first row
        out.append((mat, rows, cols))
    return out + [([], 0, 0), ([], 0, 5), ([], 3, 0),
                  ([0] * 12, 3, 4), ([0] * 12, 4, 3)]


class TestDispatcher:
    def test_max_flow_matches_reference_at_the_boundary(self):
        for args in boundary_graphs():
            assert kernels.max_flow(*args) == _kernels_py.max_flow(*args)

    @pytest.mark.parametrize("cap", BOUNDARY_CAPS)
    def test_total_flow_past_2_63(self, cap):
        args = parallel_paths(cap, 3)
        flow, reach = kernels.max_flow(*args)
        assert flow == 3 * cap > (1 << 63)
        assert (flow, reach) == _kernels_py.max_flow(*args)

    @pytest.mark.parametrize("edges", [[(0, 3, 1)], [(3, 1, 1)]])
    def test_vertex_id_past_n_raises(self, edges):
        with pytest.raises(IndexError):
            kernels.max_flow(3, edges, 0, 1)

    def test_entry_past_order_raises(self):
        gf = field(8)
        with pytest.raises(IndexError):
            kernels.gf_rank([300, 1, 2, 3], 2, 2, gf.exp, gf.log, gf.order)


class TestCompiled:
    @pytest.fixture(autouse=True)
    def compiled(self):
        self.ck = pytest.importorskip("wdss._kernels")

    def test_max_flow_matches_reference_where_it_fits(self):
        rng = random.Random("compiled")
        graphs = boundary_graphs() + [random_graph(rng, [0, 1, 2, 3, 5, 40])
                                      for _ in range(300)]
        served = 0
        for args in graphs:
            try:
                got = self.ck.max_flow(*args)
            except OverflowError:
                continue
            served += 1
            assert got == _kernels_py.max_flow(*args)
        assert served > 300

    @pytest.mark.parametrize("cap", BOUNDARY_CAPS)
    def test_overflow_raises(self, cap):
        with pytest.raises(OverflowError):
            self.ck.max_flow(*parallel_paths(cap, 3))

    def test_largest_fitting_flow(self):
        args = parallel_paths((1 << 62) - 1, 2)
        assert self.ck.max_flow(*args) == _kernels_py.max_flow(*args)

    @pytest.mark.parametrize("w", [4, 8, 16])
    def test_gf_rank_matches_reference(self, w):
        gf = field(w)
        for mat, rows, cols in random_matrices(w):
            args = (mat, rows, cols, gf.exp, gf.log, gf.order)
            assert self.ck.gf_rank(*args) == _kernels_py.gf_rank(*args)

    @pytest.mark.parametrize("n, edges, s, t", [
        (3, [(0, 3, 1)], 0, 1), (3, [(-1, 1, 1)], 0, 1),
        (3, [(0, 1, 1)], 0, 3), (3, [(0, 1, 1)], -1, 1), (0, [], 0, 0)])
    def test_vertex_out_of_range_raises(self, n, edges, s, t):
        with pytest.raises(IndexError):
            self.ck.max_flow(n, edges, s, t)

    @pytest.mark.parametrize("mat", [[256, 0, 0, 0], [0, 0, 0, -1],
                                     [0, 0, 0, 1 << 80]])
    def test_entry_out_of_range_raises(self, mat):
        gf = field(8)
        with pytest.raises(IndexError):
            self.ck.gf_rank(mat, 2, 2, gf.exp, gf.log, gf.order)
