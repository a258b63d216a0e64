import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_xi import (
    DegenerateInputError,
    DuplicatePointsError,
    InvalidInputError,
    PointCloud,
    ScenarioSpec,
    TieError,
    build_nn_graph,
    compute_ranks,
    generate,
    min_kernel_moments,
    xi_n,
)
from manifold_xi import nn_graph, rank_xi
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

    @given(st.lists(st.one_of(st.integers(-50, 50).map(float),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=2, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_counting_definition_property(self, ys):
        # small integers tie often, arbitrary floats (and -0.0 == 0.0) rarely
        y = np.asarray(ys, dtype=float)
        expected = (y[None] <= y[:, None]).sum(1)
        assert compute_ranks(y).tolist() == expected.tolist()


class TestXiValue:
    def test_hand_example_identity_line(self):
        # ranks (1,2,3), nn (2,1,2) one-based, sum of minima = 4
        stat = xi_n([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        assert stat.value == pytest.approx(-0.5, abs=1e-15)
        assert stat.n == 3

    def test_constant_response_refused(self):
        # every L_i = n, so the denominator sum L_i (n - L_i) of T_n is zero
        for strict in (False, True):
            with pytest.raises(DegenerateInputError, match="constant response"):
                xi_n([[1.0], [2.0], [3.0]], [5.0, 5.0, 5.0], strict=strict)

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

    def test_strict_refuses_duplicate_rows_before_tied_responses(self):
        with pytest.raises(DuplicatePointsError):
            xi_n([[0.0], [0.0], [1.0]], [1.0, 1.0, 2.0], strict=True)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            xi_n([[1.0], [2.0]], [1.0, 2.0])  # n < 3
        with pytest.raises(InvalidInputError):
            xi_n([[1.0], [2.0], [3.0]], [1.0, 2.0])  # length mismatch
        with pytest.raises(TieError):
            xi_n([[1.0], [2.0], [3.0]], [1.0, 1.0, 2.0], strict=True)


def tie_robust_oracle(x, y):
    """``T_n`` from all-pairs nearest neighbors and counted ``R`` and ``L``."""
    n = len(y)
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    nn = d2.argmin(axis=1)
    r = (y[None, :] <= y[:, None]).sum(1)
    big_l = (y[None, :] >= y[:, None]).sum(1)
    return ((n * np.minimum(r, r[nn]) - big_l**2).sum()
            / (big_l * (n - big_l)).sum())


class TestTiedResponses:
    @given(st.integers(0, 2**32 - 1), st.integers(3, 60), st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_all_pairs_oracle(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        x = rng.random((n, 2))
        y = rng.integers(0, levels, n).astype(float)
        y[:3] = 0.0, 1.0, 0.0  # tied and not constant
        assert xi_n(x, y).value == pytest.approx(tie_robust_oracle(x, y), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 80))
    @settings(max_examples=100, deadline=None)
    def test_tie_free_value_is_the_rank_sum_expression(self, seed, n):
        rng = np.random.default_rng(seed)
        x, y = rng.random((n, 3)), rng.permutation(n).astype(float)
        ranks = compute_ranks(y)
        s = int(np.minimum(ranks, ranks[_nn_brute(x)]).sum())
        assert xi_n(x, y).value == 6.0 * s / (n * n - 1.0) - (2.0 * n + 1.0) / (n - 1.0)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_centred_near_zero_under_independence(self, levels):
        # the tie-free expression averages about 1.75 on binary y
        rng = np.random.default_rng(40 + levels)
        values = [xi_n(rng.random((200, 2)), rng.integers(0, levels, 200).astype(float)).value
                  for _ in range(200)]
        stderr = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values)) < 3 * stderr  # about 0.02

    def test_step_function_of_x_approaches_one(self):
        x = np.random.default_rng(44).random((2000, 1))
        # the tie-free expression gives 1.75 here
        assert 0.99 < xi_n(x, np.floor(4 * x[:, 0])).value <= 1.0


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


def shared_graph_clouds():
    """The ten desk inputs (m in {1, 2, 3, 5, 10}, both transforms, n=100),
    then clouds with duplicate rows, with rows tied by underflow (copies
    scaled by 1e-170 beside rows near one) and with every row but one
    equal."""
    for m in (1, 2, 3, 5, 10):
        for transform in ("linear_embed", "manifold_embed"):
            spec = ScenarioSpec("linear", transform, m=m, rho=0.1, n=100,
                                seed=(20260808, m), r_seed=20260808)
            yield f"desk-{transform}-m{m}", generate(spec).x
    rng = np.random.default_rng(26)
    for d in (1, 3, 12):
        base = rng.standard_normal((20, d))
        yield f"duplicates-d{d}", base[rng.integers(0, 20, size=60)]
        tiny = base[:8] * 1e-170
        yield f"underflow-d{d}", np.vstack([base, tiny, tiny[::-1], np.zeros((2, d))])
        odd = rng.standard_normal((1, d))
        yield f"one-distinct-d{d}", np.vstack([np.ones((9, d)), odd])
        yield f"one-distinct-first-d{d}", np.vstack([odd, np.ones((9, d))])


SHARED_GRAPH_CLOUDS = list(shared_graph_clouds())


class TestSharedGraph:
    """With a distance matrix, a prepared sample's graph is the matrix's
    argmin, the all-pairs reference, and equals the kd-tree graph."""

    @pytest.mark.parametrize("x", [x for _, x in SHARED_GRAPH_CLOUDS],
                             ids=[name for name, _ in SHARED_GRAPH_CLOUDS])
    def test_argmin_of_the_sample_matrix_equals_the_tree_graph(self, x):
        y = np.arange(len(x)) % 7.0
        shared = rank_xi._xi_statistic(rank_xi._xi_sample(x, y, dcor=True))
        alone = rank_xi._xi_statistic(rank_xi._xi_sample(x, y))
        expected = build_nn_graph(x).nn_index
        assert np.array_equal(shared[0], expected) and np.array_equal(alone[0], expected)
        assert np.array_equal(_nn_brute(nn_graph._prescaled(x)[0]), expected)
        assert shared[1:] == alone[1:]

    def test_argmin_leaves_the_matrix_unchanged(self):
        x = np.random.default_rng(27).random((30, 2))
        d2 = nn_graph._pairwise_sqdist(x)
        before = d2.copy()
        nn_graph._nn_argmin(d2)
        assert np.array_equal(d2, before) and (np.diag(d2) == 0.0).all()


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
