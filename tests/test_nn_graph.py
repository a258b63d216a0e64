import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_xi import (
    DuplicatePointsError,
    InvalidInputError,
    PointCloud,
    build_nn_graph,
    count_motifs,
    estimate_constants_empirical,
    nn_pair_limit,
)
from manifold_xi import nn_graph
from manifold_xi.nn_graph import _nn_brute, _nn_tree, _torus_sqdist


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
            build_nn_graph(pts, strict=True)

    def test_duplicates_resolve_to_smallest_index_otherwise(self):
        pts = np.array([[5.0], [1.0], [1.0], [1.0]])
        for method in ("brute", "tree"):
            g = build_nn_graph(pts, method=method)
            assert g.nn_index.tolist() == [1, 2, 1, 1]

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            build_nn_graph(np.eye(3), method="voronoi")


class TestTreeBruteEquivalence:
    @pytest.mark.parametrize("n,d", [(10, 1), (50, 2), (200, 8), (37, 3)])
    def test_random_clouds(self, n, d):
        rng = np.random.default_rng(n * 31 + d)
        for _ in range(20):
            pts = rng.standard_normal((n, d))
            assert (_nn_tree(pts) == _nn_brute(pts)).all()

    def test_tie_heavy_lattice_clouds(self):
        # integer lattices maximize exact distance ties
        rng = np.random.default_rng(9)
        for _ in range(30):
            pts = rng.integers(0, 4, size=(40, 2)).astype(float)
            pts = np.unique(pts, axis=0)
            if len(pts) < 2:
                continue
            assert (_nn_tree(pts) == _nn_brute(pts)).all()

    def test_duplicate_heavy_clouds(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((12, 2))
        pts = np.vstack([base, base[rng.integers(0, 12, size=30)]])
        assert (_nn_tree(pts) == _nn_brute(pts)).all()

    def test_high_dimension_falls_back_to_brute(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((25, 30))
        a = build_nn_graph(pts, method="tree")
        b = build_nn_graph(pts, method="brute")
        assert (a.nn_index == b.nn_index).all()

    def test_brute_blocks_bound_scratch_and_keep_indices(self, monkeypatch):
        rng = np.random.default_rng(12)
        n, d = 60, 5
        pts = rng.standard_normal((n, d))
        monkeypatch.setattr(nn_graph, "_BRUTE_BLOCK_ENTRIES", n * n * d)
        one_block = _nn_brute(pts)
        scratch = []
        exact = nn_graph._sqdist

        def recording(a, b):
            out = exact(a, b)
            scratch.append(out.size * d)  # each (rows, n, d) temporary
            return out

        monkeypatch.setattr(nn_graph, "_sqdist", recording)
        monkeypatch.setattr(nn_graph, "_BRUTE_BLOCK_ENTRIES", 7 * n * d)
        assert (_nn_brute(pts) == one_block).all()
        assert len(scratch) == -(-n // 7) and max(scratch) <= 7 * n * d

    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_integer_lines_property(self, xs):
        pts = np.asarray(xs, dtype=float)[:, None]
        assert (_nn_tree(pts) == _nn_brute(pts)).all()


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
