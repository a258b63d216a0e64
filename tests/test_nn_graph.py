import concurrent.futures
import gc
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manifold_xi import (
    DuplicatePointsError,
    InvalidInputError,
    PointCloud,
    ScenarioSpec,
    build_nn_graph,
    count_motifs,
    dcor_stats,
    estimate_constants_empirical,
    generate,
    nn_pair_limit,
    xi_n,
    xi_test_permutation,
)
from manifold_xi import nn_graph
from manifold_xi.manifold_gen import CASES, embed_manifold
from manifold_xi.nn_graph import _nn_brute, _nn_tree
from manifold_xi.rngs import substream


def _torus_sqdist(a, b):
    """Squared wrap-around distance on the unit torus (coordinates in [0,1))."""
    diff = np.abs(a - b)
    diff = np.minimum(diff, 1.0 - diff)
    return (diff * diff).sum(axis=-1)


def ordered_motifs_by_enumeration(nn):
    """O(n^2)/O(n^3) literal definition of the motif counts."""
    n = len(nn)
    pairs = sum(1 for i in range(n) for j in range(n)
                if i != j and nn[i] == j and nn[j] == i)
    triples = sum(1 for i in range(n) for j in range(n) for k in range(n)
                  if len({i, j, k}) == 3 and nn[i] == k and nn[j] == k)
    return pairs, triples


class TestBuildGraph:
    def test_three_points_on_a_line(self):
        g = build_nn_graph(np.array([[0.0], [1.0], [3.0]]))
        assert g.nn_index.tolist() == [1, 0, 1]
        assert g.in_degree.tolist() == [1, 2, 0]

    def test_equidistant_tie_breaks_to_smallest_index(self):
        g = build_nn_graph(np.array([[1.0], [2.0], [3.0]]))
        # the middle point is equidistant to both ends
        assert g.nn_index.tolist() == [1, 0, 1]

    def test_two_points_are_mutual(self):
        g = build_nn_graph(np.array([[0.0, 0.0], [5.0, 1.0]]))
        assert g.nn_index.tolist() == [1, 0]

    def test_one_dimensional_input_accepted(self):
        g = build_nn_graph([0.0, 1.0, 3.0])
        assert g.nn_index.tolist() == [1, 0, 1]

    def test_out_degree_one_and_no_self_loops(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((300, 3))
        g = build_nn_graph(pts)
        assert (g.nn_index != np.arange(300)).all()
        assert g.in_degree.sum() == 300

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            build_nn_graph(np.array([[1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            build_nn_graph(np.array([[0.0], [np.nan]]))

    def test_duplicates_error_in_strict_mode(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        with pytest.raises(DuplicatePointsError):
            xi_n(pts, [1.0, 2.0, 3.0], strict=True)
        assert build_nn_graph(pts).nn_index.tolist() == [2, 0, 0]

    def test_duplicates_resolve_to_smallest_index_otherwise(self):
        pts = np.array([[5.0], [1.0], [1.0], [1.0]])
        assert build_nn_graph(pts).nn_index.tolist() == [1, 2, 1, 1]
        assert _nn_brute(pts).tolist() == [1, 2, 1, 1]


def _running_sqdist(a, b):
    """The order the kernels must follow, written out: the squared
    differences of ``a - b`` (coordinates last) added coordinate by
    coordinate in a Python ``+=`` loop, whatever numpy's reduce does."""
    diff = a - b
    total = diff[..., 0] * diff[..., 0]
    for j in range(1, diff.shape[-1]):
        total += diff[..., j] * diff[..., j]
    return total


def _bits_equal(got, ref):
    return got.dtype == ref.dtype and np.array_equal(got.view(np.int64), ref.view(np.int64))


def _kernel_cloud(rng, n, d, scale, tied):
    pts = rng.standard_normal((n, d))
    if tied:  # repeated values, -0.0 and exact duplicate rows
        pts = np.round(pts, 1)
        pts[:, 0] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        pts[-1] = pts[0]
    return pts * scale


KERNEL_DIMS = list(range(1, 140)) + [200, 257, 300, 513]
# for the larger n: the edges of numpy's pairwise order (8, 128 and their
# neighbours), where a kernel that fell back to it would differ first
KERNEL_EDGE_DIMS = [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 137, 257, 513]


class TestSquaredDistanceKernel:
    """The kernels add squared differences in one running sum, bit for bit.

    Scale 1e-160 makes squares underflow, 1e150 makes them near the top of
    the range and 1e155 makes some of them (and their sums) overflow to inf.
    """

    @pytest.mark.parametrize("n", [2, 5, 30, 100, 131])
    def test_pairwise_equals_running_sum(self, n):
        rng = np.random.default_rng(n)
        dims = KERNEL_DIMS if n <= 30 else KERNEL_EDGE_DIMS
        overflowed = False
        with np.errstate(over="ignore", under="ignore"):
            for d in dims:
                for scale in (1.0, 1e-160, 1e150, 1e155):
                    for tied in (False, True):
                        pts = _kernel_cloud(rng, n, d, scale, tied)
                        ref = _running_sqdist(pts[:, None, :], pts[None, :, :])
                        cols = np.ascontiguousarray(pts.T)
                        got = nn_graph._sqdist(cols[:, :, None], cols[:, None, :])
                        assert got.shape == ref.shape and _bits_equal(got, ref), \
                            (n, d, scale, tied)
                        pairs = nn_graph._pairwise_sqdist(pts)
                        assert _bits_equal(pairs, ref), (n, d, scale, tied)
                        overflowed |= bool(np.isinf(ref).any())
        assert overflowed

    @pytest.mark.parametrize("n", [3, 7, 101])
    def test_half_fill_is_symmetric_and_equals_running_sum(self, n, monkeypatch):
        # each unordered pair is computed once and mirrored: in the default
        # blocks (at n=101: one block at d = 1 and 3, blocks of 51, 6 and 3
        # rows at d = 8, 128 and 257) and in blocks of one row (the last a
        # one-entry diagonal) or two rows, the entries bound
        rng = np.random.default_rng(n + 40)
        with np.errstate(over="ignore", under="ignore"):
            for d in (1, 3, 8, 9, 128, 129, 130, 257):
                for scale in (1.0, 1e-160, 1e155):
                    pts = _kernel_cloud(rng, n, d, scale, tied=d == 3)
                    ref = _running_sqdist(pts[:, None, :], pts[None, :, :])
                    for rows in (None, 1, 2):
                        if rows is not None:
                            monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", rows * n * d)
                        got = nn_graph._pairwise_sqdist(pts)
                        assert _bits_equal(got, ref), (d, scale, rows)
                        assert _bits_equal(got, got.T)
                        assert (np.diag(got) == 0.0).all()
                    monkeypatch.undo()

    def test_scratch_is_freed_on_return(self):
        # a reference cycle (say, a self-calling closure) would keep every
        # call's gathers alive until the next garbage collection
        cols = np.random.default_rng(3).standard_normal((300, 50))
        gc.collect()
        gc.disable()
        try:
            nn_graph._sqdist(cols[:, :, None], cols[:, None, :])
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("d", [1, 3, 8, 9, 50, 129, 257])
    def test_candidate_shapes_equal_running_sum(self, d):
        # the tree's rounds: (d, rows, k) gathers of the candidates'
        # coordinates, a single row among them, and the all-rows round,
        # which broadcasts (d, 1, n) against (d, rows, 1)
        rng = np.random.default_rng(d)
        n = 40
        with np.errstate(over="ignore", under="ignore"):
            for scale in (1.0, 1e-160, 1e155):
                for tied in (False, True):
                    pts = _kernel_cloud(rng, n, d, scale, tied)
                    cols = np.ascontiguousarray(pts.T)
                    for rows, k in [(25, 8), (1, 2), (1, 3), (1, 8)]:
                        picked = rng.permutation(n)[:rows]
                        cand = rng.integers(0, n, size=(rows, k))
                        ref = _running_sqdist(pts[cand], pts[picked, None, :])
                        got = nn_graph._sqdist(np.take(cols, cand, axis=1),
                                               np.take(cols, picked, axis=1)[:, :, None])
                        assert _bits_equal(got, ref), (rows, k)
                        ref = _running_sqdist(pts[None, :, :], pts[picked, None, :])
                        got = nn_graph._sqdist(cols[:, None, :],
                                               np.take(cols, picked, axis=1)[:, :, None])
                        assert _bits_equal(got, ref), (rows, n)
                    row = nn_graph._sqdist(cols, cols[:, 7, None])  # one row against all
                    assert _bits_equal(row, _running_sqdist(pts, pts[7]))

    def test_only_the_copies_check_sums_a_single_pair(self, sqdist_blocks):
        # numpy's sum(axis=0) adds the coordinates in order only when a call
        # covers two pairs or more; over one pair it takes its pairwise
        # order from d = 8.  Only the copies' `== 0.0` check, which no order
        # changes, may ask for one: run the tree on tie-heavy lattices,
        # duplicate-heavy clouds and clouds whose distances underflow.
        rng = np.random.default_rng(22)
        clouds = [_lattice(shape, rng) for shape in [(60,), (12, 12), (6, 6, 6), (4,) * 4]]
        clouds += [0.1 * grid + 0.3 for grid in clouds]
        for n, d, levels in [(500, 1, 10), (400, 3, 20), (300, 2, 3), (200, 5, 150), (100, 9, 20)]:
            base = rng.standard_normal((levels, d))
            copies = base[rng.integers(0, levels, size=n)]
            clouds += [copies, np.vstack([copies, rng.standard_normal((n // 4, d))])]
        clouds += [np.tile([1.5, -2.0], (50, 1)), *underflow_clouds()]
        for cloud in clouds:
            _nn_tree(cloud)
        single = {call.caller for call in sqdist_blocks if call[0] * call[1] == 1}
        assert single == {"_nn_tree"}
        assert {call.caller for call in sqdist_blocks} == {"_nn_tree", "one"}


class _Call(tuple):
    """The ``(rows, candidates, d)`` block of one :func:`_sum_squares` call;
    ``caller`` names the function whose distances it computed."""

    def __new__(cls, block, caller):
        call = super().__new__(cls, block)
        call.caller = caller
        return call


@pytest.fixture
def sqdist_blocks(monkeypatch):
    """Record the ``(rows, candidates, d)`` block of every
    :func:`_sum_squares` call as a :class:`_Call`: the tree's candidate
    rounds (``one``, a ``(d, rows, k)`` gather), the copies' tie check
    (``_nn_tree``, ``(d, groups)`` coordinates, one candidate per row) and
    the all-pairs blocks (``_pairwise_sqdist``, rows ``[s, e)`` against
    columns ``[s, n)`` in all ``d`` coordinates)."""
    blocks = []
    sum_squares = nn_graph._sum_squares

    def recording(diff):
        d, rows, cands = (*diff.shape, 1, 1)[:3]
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_sqdist":
            caller = caller.f_back
        blocks.append(_Call((rows, cands, d), caller.f_code.co_name))
        return sum_squares(diff)

    monkeypatch.setattr(nn_graph, "_sum_squares", recording)
    return blocks


def _lattice(shape, rng):
    """The integer lattice ``prod(range(s) for s in shape)``, rows shuffled."""
    axes = np.meshgrid(*[np.arange(side, dtype=float) for side in shape])
    grid = np.stack(axes, axis=-1).reshape(-1, len(shape))
    return grid[rng.permutation(len(grid))]


def underflow_clouds(count=3000, seed=16):
    """Seeded small clouds where exact distance ties abound: tie-heavy
    integers, integers scaled to subnormal distances, signed zeros beside
    rows whose squared distance underflows, and copies beside such rows."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        kind = i % 4
        if kind == 0:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
        elif kind == 1:
            scale = rng.choice([1e-170, 1e-160, 1e-320], size=(1, d))
            pts = rng.integers(-3, 4, size=(n, d)) * scale
        elif kind == 2:
            pts = rng.choice([0.0, -0.0, 1.0, 1e-170, -1e-170], size=(n, d))
        else:
            base = rng.standard_normal((max(1, n // 3), d))
            pts = base[rng.integers(0, len(base), size=n)]
            pts[rng.random(n) < 0.2, 0] = rng.choice([0.0, 1e-170, 3e-170])
        yield pts


class TestTreeBruteEquivalence:
    @pytest.mark.parametrize("n,d", [(10, 1), (50, 2), (200, 8), (37, 3),
                                     (100, 25), (100, 50), (60, 100)])
    def test_random_clouds(self, n, d):
        rng = np.random.default_rng(n * 31 + d)
        for _ in range(20):
            pts = rng.standard_normal((n, d))
            assert (_nn_tree(pts) == _nn_brute(pts)).all()

    @pytest.mark.parametrize("transform", ["linear_embed", "manifold_embed"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_desk_study_inputs(self, m, transform):
        # the desk grid's own predictors: n=100 in d = 5m coordinates
        for case in CASES:
            for seed in range(4):
                x = generate(ScenarioSpec(case, transform, m, 0.0, 100, seed=seed)).x
                assert (_nn_tree(x) == _nn_brute(x)).all()

    def test_tie_heavy_lattice_clouds(self):
        # integer lattices maximize exact distance ties
        rng = np.random.default_rng(9)
        for _ in range(30):
            pts = rng.integers(0, 4, size=(40, 2)).astype(float)
            pts = np.unique(pts, axis=0)
            if len(pts) < 2:
                continue
            assert (_nn_tree(pts) == _nn_brute(pts)).all()
        # full lattices in shuffled row order; a scaled copy rounds the ties
        # into near-ties, and in d=4 eight equidistant neighbors outgrow
        # every candidate list
        for d, side in [(1, 60), (2, 12), (3, 6), (4, 4)]:
            axes = np.meshgrid(*[np.arange(side, dtype=float)] * d)
            grid = np.stack(axes, axis=-1).reshape(-1, d)
            for pts in (grid, 0.1 * grid + 0.3):
                pts = pts[rng.permutation(len(pts))]
                assert (_nn_tree(pts) == _nn_brute(pts)).all()

    def test_duplicate_heavy_clouds(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((12, 2))
        pts = np.vstack([base, base[rng.integers(0, 12, size=30)]])
        assert (_nn_tree(pts) == _nn_brute(pts)).all()
        # few distinct rows, each copied many times, alone or among singletons
        for n, d, levels in [(500, 1, 10), (400, 3, 20), (300, 2, 3), (200, 5, 150)]:
            base = rng.standard_normal((levels, d))
            pts = base[rng.integers(0, levels, size=n)]
            assert (_nn_tree(pts) == _nn_brute(pts)).all()
            pts = np.vstack([pts, rng.standard_normal((n // 4, d))])
            pts = pts[rng.permutation(len(pts))]
            assert (_nn_tree(pts) == _nn_brute(pts)).all()
        # -0.0 and 0.0 are equal rows
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0], [0.0, 1.0], [-0.0, 1.0]])
        assert (_nn_tree(pts) == _nn_brute(pts)).all()
        # every row identical: no distinct pair is left for the tree
        for n in (2, 50):
            pts = np.tile([1.5, -2.0], (n, 1))
            assert (_nn_tree(pts) == _nn_brute(pts)).all()

    @pytest.mark.parametrize("pts", [
        [[1e-170], [0.0], [0.0], [5.0], [6.0]],
        [[1e-170, 1.0], [0.0, 1.0], [0.0, 1.0], [3.0, 3.0]],
        [[0.0], [1e-170], [0.0], [0.0]],
        # mergeable copies beside the rows that must stay apart
        [[1e-170, 1.0], [0.0, 1.0], [0.0, 1.0], [3.0, 3.0], [3.0, 3.0]],
        pytest.param(None, id="seeded-batch"),
    ])
    def test_underflowing_distances_are_not_copies(self, pts):
        # (1e-170)**2 underflows to 0, so these rows tie at distance zero
        # with rows they do not equal; a copy must still point to the
        # smallest of them
        for cloud in underflow_clouds() if pts is None else [np.asarray(pts)]:
            assert (_nn_tree(cloud) == _nn_brute(cloud)).all()

    def test_copies_and_generic_clouds_need_no_row_scans(self, monkeypatch, sqdist_blocks):
        # comparing a row with all rows is O(n); doing so for every copy made
        # the graph quadratic, and so does a tree built on copies it cannot split
        tree_rows, unique_axes = [], []
        tree, unique = nn_graph.cKDTree, np.unique
        monkeypatch.setattr(nn_graph, "cKDTree",
                            lambda pts: tree_rows.append(len(pts)) or tree(pts))
        monkeypatch.setattr(np, "unique", lambda *a, **kw: unique_axes.append(
            kw.get("axis")) or unique(*a, **kw))

        def tree_candidates(pts, expected):
            # candidates per row of every exact-distance call the tree pass made
            sqdist_blocks.clear()
            assert (_nn_tree(pts) == expected).all()
            return {cands for _, cands, _ in sqdist_blocks}

        rng = np.random.default_rng(13)
        pts = rng.standard_normal(10)[rng.integers(0, 10, size=2000)][:, None]
        # three candidates settle the ten distinct rows: no all-rows round
        assert tree_candidates(pts, _nn_brute(pts)) <= {1, 3}
        assert tree_rows == [10]
        # column 0 proves continuous rows distinct: no sort of whole rows
        tree_rows.clear()
        unique_axes.clear()
        pts = rng.random((1000, 3))
        assert tree_candidates(pts, _nn_brute(pts)) <= {3, 8}
        assert tree_rows == [1000] and 0 not in unique_axes
        # copies of a row whose squared distance to another underflows to 0:
        # row 0 ties with every 0.0 row, so all of them point to it
        tree_rows.clear()
        pts = np.zeros(4000)
        pts[2000:] = 1.0
        pts[0] = 1e-170
        expected = np.r_[1, np.zeros(1999, int), 2001, np.full(1999, 2000)]
        assert tree_candidates(pts[:, None], expected) <= {1, 3}
        assert tree_rows == [3]

    def test_brute_blocks_bound_scratch_and_keep_indices(self, monkeypatch, sqdist_blocks):
        rng = np.random.default_rng(12)
        n, d = 60, 5
        pts = rng.standard_normal((n, d))
        monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", n * n * d)
        one_block = _nn_brute(pts)
        lattice = _lattice((8, 8), rng)
        lattice_nn = _nn_brute(lattice)
        queried = []

        class RecordingTree(nn_graph.cKDTree):
            def query(self, x, k=1, **kwargs):
                dist, cand = super().query(x, k, **kwargs)
                queried.append(cand.shape + (self.m,))
                return dist, cand

        monkeypatch.setattr(nn_graph, "cKDTree", RecordingTree)
        # the all-pairs matrix: rows [s, s + 7) against columns [s, n), each
        # unordered pair once, all d coordinates in one kernel call
        sqdist_blocks.clear()
        monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", 7 * n * d)
        assert (_nn_brute(pts) == one_block).all()
        assert sqdist_blocks == [(min(7, n - s), n - s, d) for s in range(0, n, 7)]
        assert max(np.prod(s) for s in sqdist_blocks) <= 7 * n * d

        # the tree's first round: (rows, k=3, d) queries and temporaries
        sqdist_blocks.clear()
        monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", 7 * 3 * d)
        assert (_nn_tree(pts) == one_block).all()
        assert len(sqdist_blocks) == -(-n // 7) and {s[1] for s in sqdist_blocks} == {3}
        assert queried == sqdist_blocks
        assert max(np.prod(s) for s in sqdist_blocks) <= 7 * 3 * d

        # lattice near-ties take the k=8 round: (rows, 8, 2) queries and temporaries
        sqdist_blocks.clear()
        queried.clear()
        monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", 7 * 8 * 2)
        assert (_nn_tree(lattice) == lattice_nn).all()
        assert {s[1] for s in sqdist_blocks} == {3, 8}
        assert queried == sqdist_blocks
        assert max(np.prod(s) for s in sqdist_blocks) <= 7 * 8 * 2

    @pytest.mark.parametrize("shape", [(6, 6, 6, 6), (4, 4, 4, 4, 4),
                                       (4, 3, 3, 3, 3, 3), (3,) * 7],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_lattices_beyond_eight_candidates(self, shape, sqdist_blocks):
        # an interior row has 2d equidistant nearest neighbors, more than the
        # first two rounds' candidates, so the k=28 round settles it; scaling
        # rounds the ties into near-ties, and copies must not disturb them
        rng = np.random.default_rng(len(shape))
        grid = _lattice(shape, rng)
        assert len(grid) >= 28**2
        for pts in (grid, 0.1 * grid, np.vstack([grid, grid[rng.integers(0, len(grid), 50)]])):
            pts = pts[rng.permutation(len(pts))]
            expected = _nn_brute(pts)
            sqdist_blocks.clear()
            assert (_nn_tree(pts) == expected).all()
            assert 28 in {cands for _, cands, _ in sqdist_blocks}

    def test_lattice_costs_linear_distance_entries(self, sqdist_blocks):
        # one all-rows comparison per tied row computed about 58M entries
        # here; the growing candidate list needs fewer than 64 per row
        pts = _lattice((6,) * 5, np.random.default_rng(14))
        _nn_tree(pts)
        assert sum(rows * cands for rows, cands, _ in sqdist_blocks) <= 64 * len(pts)

    def test_distinct_cloud_reaches_the_kernel_uncopied(self, monkeypatch):
        # a copy of a distinct cloud costs 24 MB at 1e6 x 3 and changes nothing
        received, kernel = [], nn_graph._nn_distinct

        def spy(pts):
            received.append(pts)
            return kernel(pts)

        monkeypatch.setattr(nn_graph, "_nn_distinct", spy)
        pts = np.random.default_rng(15).random((500, 3))
        assert (_nn_tree(pts) == _nn_brute(pts)).all()
        assert received[0] is pts
        with_copy = np.vstack([pts, pts[:3]])
        assert (_nn_tree(with_copy) == _nn_brute(with_copy)).all()
        assert received[1].shape == pts.shape and received[1] is not with_copy

    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_integer_lines_property(self, xs):
        pts = np.asarray(xs, dtype=float)[:, None]
        assert (_nn_tree(pts) == _nn_brute(pts)).all()


class TestRowFanOut:
    """Rounds of at least ``_PARALLEL_ROWS`` rows run their row blocks
    through ``parallel_map``; the graph is the same for any split."""

    def test_cloud_above_the_floor_keeps_its_graph(self, monkeypatch):
        pts = np.random.default_rng(18).random((2 * nn_graph._PARALLEL_ROWS, 3))
        default = _nn_tree(pts)
        monkeypatch.setattr(nn_graph, "_PARALLEL_ROWS", len(pts) + 1)  # one worker
        assert np.array_equal(_nn_tree(pts), default)
        # more workers than cores, switching threads often: a block writing
        # outside its own slice would change some row's neighbor
        monkeypatch.setattr(nn_graph, "_PARALLEL_ROWS", 1)
        workers = nn_graph.worker_count(None) + 2
        monkeypatch.setattr(nn_graph, "worker_count", lambda threads: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert np.array_equal(_nn_tree(pts), default)
        finally:
            sys.setswitchinterval(interval)

    def test_blocks_share_the_scratch_bound(self, monkeypatch, sqdist_blocks):
        # two usable CPUs: the first round runs at least two blocks, and the
        # two running at once stay within the bound together
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pts = np.random.default_rng(19).random((nn_graph._PARALLEL_ROWS + 500, 3))
        for entries in (nn_graph._SQDIST_BLOCK_ENTRIES, 2**12):
            monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", entries)
            sqdist_blocks.clear()
            _nn_tree(pts)
            first = [s for s in sqdist_blocks if s[1] == 3]
            assert len(first) >= 2 and sum(rows for rows, _, _ in first) == len(pts)
            assert 2 * max(np.prod(s) for s in first) <= entries
        assert len(first) > 2  # the small bound cuts more blocks than workers

    def test_rounds_at_scale_keep_the_pairwise_bound(self, monkeypatch, sqdist_blocks):
        # at scale too, with the default bound and two usable CPUs, the blocks
        # of a round that run at once hold at most the squares of one
        # all-pairs block, not arrays the size of half the cloud
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pts = np.random.default_rng(21).random((100_000, 3))
        _nn_tree(pts)
        rounds = {}
        for call in sqdist_blocks:
            assert call.caller == "one"
            rounds.setdefault(call[1], []).append(call)
        first = rounds[3]
        assert len(first) >= 2 and sum(rows for rows, _, _ in first) == len(pts)
        for blocks in rounds.values():
            at_once = 2 if sum(rows for rows, _, _ in blocks) >= nn_graph._PARALLEL_ROWS else 1
            assert at_once * max(np.prod(s) for s in blocks) <= nn_graph._SQDIST_BLOCK_ENTRIES

    def test_small_clouds_start_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        rng = np.random.default_rng(20)
        x, y = rng.random((100, 3)), rng.random(100)
        _nn_tree(x)
        xi_n(x, y)
        xi_test_permutation(x, y, B=19)
        _nn_tree(_lattice((3,) * 4, rng))  # interior rows reach the all-rows round

    def test_split_rounds_match_the_all_pairs_graph(self, monkeypatch):
        # every round of every cloud split over three pooled workers: seeded
        # tie-heavy, subnormal and copied clouds (a pool per round costs
        # about 2 ms, so a fifth of the batch), and lattices whose near-ties
        # reach the deeper rounds
        monkeypatch.setattr(nn_graph, "_PARALLEL_ROWS", 1)
        monkeypatch.setattr(nn_graph, "worker_count", lambda threads: 3)
        rng = np.random.default_rng(21)
        lattices = [_lattice(shape, rng) for shape in [(9, 9), (4, 4, 4), (3,) * 5]]
        for cloud in [*underflow_clouds(count=600), *lattices, *(0.1 * g for g in lattices)]:
            assert (_nn_tree(cloud) == _nn_brute(cloud)).all()


def _row_major_nn(pts, rows=50):
    """Nearest neighbours by the argmin of numpy's row-major broadcast
    reduction ``(diff * diff).sum(-1)`` (pairwise order from d = 8), the
    order every benchmark pin was taken in; ``rows`` at a time, which
    changes no value."""
    nn = np.empty(len(pts), dtype=np.intp)
    for start in range(0, len(pts), rows):
        diff = pts[start:start + rows, None, :] - pts[None, :, :]
        d2 = (diff * diff).sum(axis=-1)
        d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.inf
        nn[start:start + rows] = d2.argmin(axis=1)
    return nn


class TestRowMajorPins:
    """The graph equals the row-major reduction's on the inputs the
    benchmark pins, so a summation order that moved an index fails here."""

    def test_desk_study_inputs(self):
        # drawn as TestTreeBruteEquivalence.test_desk_study_inputs draws them
        for transform in ("linear_embed", "manifold_embed"):
            for m in (1, 2, 3, 5, 10):
                for case in CASES:
                    for seed in range(4):
                        x = generate(ScenarioSpec(case, transform, m, 0.0, 100, seed=seed)).x
                        assert (build_nn_graph(x).nn_index == _row_major_nn(x)).all(), \
                            (case, transform, m, seed)

    def test_low_dimensional_manifold_in_fifty_coordinates(self):
        # an m=2 manifold in d=50, built as the benchmark's large inputs
        # build it: embed_manifold's 10 columns times a fixed 10x50 matrix
        rng = np.random.default_rng(23)
        z = rng.uniform(-1.0, 1.0, (800, 2))
        mix = rng.standard_normal((10, 50))
        x = (embed_manifold(z)[:, :, None] * mix[None]).sum(axis=1)
        assert (build_nn_graph(x).nn_index == _row_major_nn(x)).all()


class TestMotifs:
    def test_line_example(self):
        g = build_nn_graph(np.array([[0.0], [1.0], [3.0]]))
        mc = count_motifs(g)
        assert (mc.pair_count, mc.triple_count) == (2, 2)

    def test_two_points_single_mutual_pair(self):
        mc = count_motifs(build_nn_graph(np.array([[0.0], [1.0]])))
        assert (mc.pair_count, mc.triple_count) == (2, 0)

    def test_counts_match_literal_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts = rng.standard_normal((rng.integers(3, 30), 2))
            g = build_nn_graph(pts)
            mc = count_motifs(g)
            pairs, triples = ordered_motifs_by_enumeration(g.nn_index.tolist())
            assert (mc.pair_count, mc.triple_count) == (pairs, triples)
            assert mc.pair_count % 2 == 0
            assert 0 <= mc.pair_count <= mc.n

    def test_triple_count_equals_degree_formula(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((500, 3))
        g = build_nn_graph(pts)
        mc = count_motifs(g)
        assert mc.triple_count == int((g.in_degree * (g.in_degree - 1)).sum())


class TestMaxInDegreeBounded:
    def test_plane_in_degree_never_exceeds_six(self):
        rng = np.random.default_rng(5)
        worst = 0
        for _ in range(100):
            pts = rng.random((10_000, 2))
            worst = max(worst, int(build_nn_graph(pts).in_degree.max()))
        assert worst <= 6

    def test_bound_stable_across_sample_sizes(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 3):
            maxima = []
            for n in (100, 1000, 10_000):
                runs = [int(build_nn_graph(rng.random((n, d))).in_degree.max())
                        for _ in range(5)]
                maxima.append(max(runs))
            assert max(maxima) <= {1: 2, 2: 6, 3: 12}[d]


class TestOverflowingDistances:
    """``build_nn_graph`` runs the kernel on the cloud ``_prescaled`` gives:
    a cloud whose largest coordinate is beyond ``2**±256`` is scaled to one
    in ``[1/2, 1)`` by an exact power of two."""

    def test_far_out_clouds_keep_their_graph(self):
        # unprescaled, x * 1e160 loses the tree's neighbors to overflow and
        # x * 1e-170 ties every row at an underflowed zero
        x = np.random.default_rng(20).random((120, 2))
        expected = build_nn_graph(x).nn_index
        for scale in (1e160, 1e-170, 2.0**600, 2.0**-600):
            scaled = x * scale
            got = build_nn_graph(scaled).nn_index
            np.testing.assert_array_equal(got, _nn_brute(nn_graph._prescaled(scaled)[0]))
            np.testing.assert_array_equal(got, expected)

    def test_in_band_clouds_reach_the_kernel_as_given(self, monkeypatch):
        received, kernel = [], nn_graph._nn_tree
        monkeypatch.setattr(nn_graph, "_nn_tree",
                            lambda pts: received.append(pts) or kernel(pts))
        x = np.random.default_rng(26).random((50, 3))
        assert 0.5 <= x.max() < 1.0
        for pts in (x, x * 2.0**256, x * 2.0**-256):  # within the band: no copy
            build_nn_graph(pts)
            assert received.pop() is pts
        for k in (257, -257):
            build_nn_graph(x * 2.0**k)
            assert np.array_equal(received.pop(), x)

    def test_a_tiny_cloud_takes_no_all_rows_round(self, monkeypatch):
        # unprescaled, every row of this cloud ties at an underflowed zero,
        # so no candidate list proves a row and each meets all n rows
        rounds, verified = [], nn_graph._verified_candidates

        def spy(tree, pts, cols, rows, k):
            rounds.append(k)
            return verified(tree, pts, cols, rows, k)

        monkeypatch.setattr(nn_graph, "_verified_candidates", spy)
        x = np.random.default_rng(25).random(4000)
        got = build_nn_graph(x * 2.0**-545).nn_index
        assert rounds and max(rounds) < len(x)
        np.testing.assert_array_equal(got, build_nn_graph(x).nn_index)

    @given(st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64)),
                    min_size=4, max_size=30),
           st.integers(-1100, 1100))
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scaling_changes_nothing(self, rows, k):
        # wherever 2**k * x is exact, its squared distances are those of x
        # times 4**k, or the prescale takes it back to x itself
        x = np.array(rows, dtype=float)
        assume(x.any())
        x = np.ldexp(x, -int(np.frexp(np.abs(x).max())[1]))  # largest |coordinate| in [1/2, 1)
        with np.errstate(over="ignore"):
            scaled = np.ldexp(x, k)
        assume(np.array_equal(np.ldexp(scaled, -k), x))  # finite, none subnormal
        y = np.arange(len(x)) * 5.0 % 7.0
        assert np.array_equal(build_nn_graph(scaled).nn_index, build_nn_graph(x).nn_index)
        assert xi_n(scaled, y) == xi_n(x, y)
        assert dcor_stats(scaled, y).dcor2 == dcor_stats(x, y).dcor2

    def test_overflow_beyond_the_nearest_neighbor_is_skipped(self):
        # pairs of rows 1e160 apart: every row's nearest is close, while the
        # tree's third candidate was out of reach before the prescale
        rng = np.random.default_rng(21)
        for d in (1, 2, 3):
            pairs = [centre + rng.random((2, d)) * 1e150
                     for centre in (0.0, 1e160, -1e160, 3e160)]
            x = np.concatenate(pairs)[rng.permutation(8)]
            np.testing.assert_array_equal(build_nn_graph(x).nn_index, _nn_brute(x))

    def test_large_finite_distances_keep_their_graph(self):
        x = np.random.default_rng(22).random((200, 3))
        scaled = build_nn_graph(x * 2.0**500).nn_index  # squares stay below 2**1024
        np.testing.assert_array_equal(scaled, build_nn_graph(x).nn_index)


class TestTorusMetric:
    def test_wraparound_distance(self):
        a = np.array([0.05, 0.5])
        b = np.array([0.95, 0.5])
        assert _torus_sqdist(a, b) == pytest.approx(0.1**2, abs=1e-15)

    def test_torus_tree_matches_torus_brute(self):
        rng = np.random.default_rng(12)
        from scipy.spatial import cKDTree
        for _ in range(10):
            pts = rng.random((60, 2))
            _, idx = cKDTree(pts, boxsize=1.0).query(pts, k=2)
            d2 = _torus_sqdist(pts[:, None, :], pts[None, :, :])
            d2[np.arange(60), np.arange(60)] = np.inf
            assert (idx[:, 1] == d2.argmin(axis=1)).all()

    @pytest.mark.parametrize("geometry", ["torus", "cube"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_uniform_sample_matches_brute(self, m, geometry):
        # the sampler's own tree (its build flags included) against argmin
        # over wrap-around or plain distances on the same draws
        for seed in range(5):
            nn = nn_graph._nn_uniform_sample(m, 300, geometry, substream(seed, 4))
            pts = substream(seed, 4).random((300, m))
            if geometry == "torus":
                d2 = _torus_sqdist(pts[:, None, :], pts[None, :, :])
            else:
                d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            np.testing.assert_array_equal(nn, d2.argmin(axis=1))


class TestEmpiricalConstants:
    def test_one_dimensional_pair_rate_near_limit(self):
        est = estimate_constants_empirical(m=1, n=2000, reps=8, seed=1)
        assert est.pair_rate == pytest.approx(nn_pair_limit(1), abs=0.02)
        assert est.pair_stderr > 0 and est.triple_stderr > 0

    def test_deterministic_and_thread_independent(self):
        a = estimate_constants_empirical(m=2, n=500, reps=6, seed=42, threads=1)
        b = estimate_constants_empirical(m=2, n=500, reps=6, seed=42, threads=3)
        assert a == b

    def test_cube_geometry_runs(self):
        est = estimate_constants_empirical(m=2, n=500, reps=4, geometry="cube", seed=2)
        assert 0.4 < est.pair_rate < 0.8

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            estimate_constants_empirical(m=0, n=1000, reps=2)
        with pytest.raises(InvalidInputError):
            estimate_constants_empirical(m=1, n=50, reps=2)
        with pytest.raises(InvalidInputError):
            estimate_constants_empirical(m=1, n=1000, reps=0)
        with pytest.raises(InvalidInputError):
            estimate_constants_empirical(m=1, n=1000, reps=2, geometry="sphere")


def test_point_cloud_properties():
    cloud = PointCloud(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert (cloud.n, cloud.d) == (2, 2)
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((2, 2, 2)))


def test_require_distinct_sorts_rows_only_when_column_zero_repeats(monkeypatch):
    unique_axes = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: unique_axes.append(
        kw.get("axis")) or unique(*a, **kw))
    PointCloud(np.random.default_rng(15).random((1000, 3))).require_distinct()
    assert 0 not in unique_axes
    PointCloud(np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 2.0]])).require_distinct()
    assert 0 in unique_axes
    with pytest.raises(DuplicatePointsError):
        PointCloud(np.array([[1.0, 2.0], [-0.0, 3.0], [0.0, 3.0]])).require_distinct()
