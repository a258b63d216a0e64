import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_xi import (
    InvalidInputError,
    PointCloud,
    TieError,
    compute_ranks,
    min_kernel_moments,
    xi_n,
)
from manifold_xi.nn_graph import _nn_brute


class TestRanks:
    def test_distinct_values(self):
        assert compute_ranks([10.0, -3.0, 5.5]).tolist() == [3, 1, 2]

    def test_sorted_input_is_identity(self):
        assert compute_ranks(np.arange(12.0)).tolist() == list(range(1, 13))

    def test_ties_get_maximal_shared_rank(self):
        assert compute_ranks([7.0, 7.0]).tolist() == [2, 2]
        assert compute_ranks([3.0, 1.0, 3.0, 0.0]).tolist() == [4, 2, 4, 1]

    def test_strict_mode_rejects_ties(self):
        with pytest.raises(TieError):
            xi_n([[0.0], [1.0], [2.0]], [1.0, 2.0, 1.0], strict=True)
        assert compute_ranks([1.0, 2.0, 1.0]).tolist() == [2, 3, 2]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            compute_ranks([[1.0, 2.0]])
        with pytest.raises(InvalidInputError):
            compute_ranks([1.0, np.inf])

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_counting_definition_property(self, ys):
        y = np.asarray(ys, dtype=float)
        ranks = compute_ranks(y)
        expected = [(y <= yi).sum() for yi in y]
        assert ranks.tolist() == expected


class TestXiValue:
    def test_hand_example_identity_line(self):
        # ranks (1,2,3), nn (2,1,2) one-based, sum of minima = 4
        stat = xi_n([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        assert stat.value == pytest.approx(-0.5, abs=1e-15)
        assert stat.n == 3

    def test_constant_response_documented_degenerate_value(self):
        # all ranks equal n, so the rank sum is n^2; for n=3 the formula
        # gives 6*9/8 - 7/2 = 27/4 - 7/2 = 13/4 (meaningless but defined)
        stat = xi_n([[1.0], [2.0], [3.0]], [5.0, 5.0, 5.0])
        assert stat.value == pytest.approx(13.0 / 4.0, abs=1e-15)

    def test_brute_and_tree_agree(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((150, 3))
        y = rng.standard_normal(150)
        ranks = compute_ranks(y)
        rank_sum = int(np.minimum(ranks, ranks[_nn_brute(x)]).sum())
        brute = 6.0 * rank_sum / (150 * 150 - 1.0) - (2.0 * 150 + 1.0) / (150 - 1.0)
        assert xi_n(x, y).value == brute

    def test_strict_checks_duplicate_rows_once(self, monkeypatch):
        calls = []
        check = PointCloud.require_distinct

        def counted(cloud):
            calls.append(cloud.n)
            return check(cloud)

        monkeypatch.setattr(PointCloud, "require_distinct", counted)
        rng = np.random.default_rng(3)
        x, y = rng.random((40, 2)), rng.random(40)
        assert xi_n(x, y, strict=True) == xi_n(x, y)
        assert calls == [40]

    def test_functional_dependence_approaches_one(self):
        rng = np.random.default_rng(1)
        x = rng.random((5000, 3))
        stat = xi_n(x, x[:, 0])
        assert 0.9 < stat.value < 1.001

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            xi_n([[1.0], [2.0]], [1.0, 2.0])  # n < 3
        with pytest.raises(InvalidInputError):
            xi_n([[1.0], [2.0], [3.0]], [1.0, 2.0])  # length mismatch
        with pytest.raises(TieError):
            xi_n([[1.0], [2.0], [3.0]], [1.0, 1.0, 2.0], strict=True)


class TestXiInvariances:
    def dataset(self, seed=2, n=120, d=2):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d)), rng.standard_normal(n)

    def test_monotone_response_invariance(self):
        x, y = self.dataset()
        base = xi_n(x, y).value
        assert xi_n(x, np.exp(y)).value == base
        assert xi_n(x, y**3).value == base

    def test_isometry_invariance(self):
        x, y = self.dataset(d=3)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = x @ q.T + np.array([5.0, -2.0, 0.25])
        assert xi_n(rotated, y).value == xi_n(x, y).value

    def test_joint_permutation_equivariance_tie_free(self):
        x, y = self.dataset(seed=4)
        perm = np.random.default_rng(5).permutation(len(y))
        assert xi_n(x[perm], y[perm]).value == xi_n(x, y).value

    def test_null_mean_matches_exact_finite_sample_value(self):
        # under independence the rank vector is a uniform permutation
        # independent of the graph, E[min of two distinct ranks] = (n+1)/3,
        # and the exact null mean works out to -1/(n-1)
        rng = np.random.default_rng(6)
        reps, n = 2000, 100
        values = np.empty(reps)
        for r in range(reps):
            values[r] = xi_n(rng.random((n, 1)), rng.random(n)).value
        stderr = values.std(ddof=1) / np.sqrt(reps)
        assert values.mean() == pytest.approx(-1.0 / (n - 1), abs=3 * stderr)
        assert abs(values.mean()) < 0.02  # near zero in absolute terms


class TestKernelMoments:
    def test_moments_near_exact_values(self):
        mom = min_kernel_moments(10**5, seed=0)
        assert mom.mean == pytest.approx(0.0, abs=0.03)
        assert mom.second_moment == pytest.approx(2.0, abs=0.06)
        assert mom.cross_moment == pytest.approx(0.8, abs=0.06)

    def test_deterministic(self):
        assert min_kernel_moments(10**4, seed=5) == min_kernel_moments(10**4, seed=5)

    def test_sample_floor(self):
        with pytest.raises(InvalidInputError):
            min_kernel_moments(10**3)
