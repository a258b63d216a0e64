import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from manifold_xi import (
    DegenerateInputError,
    InvalidInputError,
    dcor_stats,
    dcor_test_permutation,
    null_variance,
    xi_n,
    xi_test_asymptotic,
    xi_test_permutation,
)
from manifold_xi import dep_tests, nn_graph
from manifold_xi.dep_tests import METHODS, _centred_distances, result_as_dict, run_test
from manifold_xi.rngs import substream

EXACT_1D = null_variance(1, source="closed_form")


def dcor_permutation_by_gather(x, y, B, seed):
    """Reference dcor permutation test: gather the relabelled centred ``y``
    matrix for every permutation.  Returns ``(statistic, p_value)``."""
    a = _centred_distances(np.asarray(x, dtype=float))
    b = _centred_distances(np.asarray(y, dtype=float))
    norm = math.sqrt(float((a * a).mean()) * float((b * b).mean()))
    observed = float((a * b).mean())
    rng = substream(seed)
    exceed = 0
    for _ in range(B):
        perm = rng.permutation(len(y))
        if float((a * b[np.ix_(perm, perm)]).mean()) >= observed:
            exceed += 1
    return min(max(observed, 0.0) / norm, 1.0), (1.0 + exceed) / (B + 1.0)


def dcor_case(kind, n, rng):
    """A dependent pair of size ``n``, altered as ``kind`` says."""
    x = rng.random((n, 2))
    y = x[:, 0] + 0.5 * rng.random(n)
    if kind == "tied":
        y = rng.permutation(np.arange(n) % 3).astype(float)
    elif kind == "outlier":
        y[0] = 1e12
    elif kind == "duplicate_x":
        x[n // 2:] = x[:n - n // 2]
    return x, y


class TestXiAsymptotic:
    def test_zero_statistic_gives_half_p_value(self):
        # for n=5 on a sorted line with y=x the rank sum is exactly
        # (n+1)(2n+1)/6 = 11, so the statistic vanishes
        x = np.arange(1.0, 6.0)[:, None]
        y = np.arange(1.0, 6.0)
        assert xi_n(x, y).value == 0.0
        res = xi_test_asymptotic(x, y, m=1, alpha=0.05, constants=EXACT_1D)
        assert res.z_score == 0.0
        assert res.p_value == pytest.approx(0.5, abs=1e-12)
        assert not res.reject

    def test_standardization_formula(self):
        rng = np.random.default_rng(0)
        x = rng.random((80, 1))
        y = rng.random(80)
        res = xi_test_asymptotic(x, y, m=1, constants=EXACT_1D)
        expected_z = math.sqrt(80) * xi_n(x, y).value / math.sqrt(16.0 / 15.0)
        assert res.z_score == pytest.approx(expected_z, abs=1e-14)
        assert res.p_value == pytest.approx(special.ndtr(-expected_z), abs=1e-14)
        assert res.reject == (res.p_value <= 0.05)
        assert res.method == "xi_asymptotic" and res.m_used == 1

    def test_far_tail_p_value_stays_positive(self):
        # z ~ 21.5, where 1 - Phi(z) rounds to exactly 0 but Phi(-z) ~ 5e-103.
        x = np.random.default_rng(2).random((500, 1))
        right = xi_test_asymptotic(x, x[:, 0], m=1, constants=EXACT_1D)
        assert 0.0 < right.p_value == special.ndtr(-right.z_score)
        both = xi_test_asymptotic(x, x[:, 0], m=1, constants=EXACT_1D,
                                  tail="two_sided")
        assert 0.0 < both.p_value == 2.0 * special.ndtr(-abs(both.z_score))

    def test_z_monotone_in_statistic(self):
        x = np.arange(1.0, 101.0)[:, None]
        rng = np.random.default_rng(1)
        weak = xi_test_asymptotic(x, rng.permutation(100).astype(float), m=1,
                                  constants=EXACT_1D)
        strong = xi_test_asymptotic(x, np.arange(100.0) + 0.01 * rng.random(100),
                                    m=1, constants=EXACT_1D)
        assert strong.statistic > weak.statistic
        assert strong.z_score > weak.z_score

    def test_constant_response_refused(self):
        x = np.random.default_rng(2).random((30, 2))
        with pytest.raises(DegenerateInputError):
            xi_test_asymptotic(x, np.full(30, 3.3), m=2, constants=EXACT_1D)

    def test_bad_x_refused_before_the_constants(self, monkeypatch):
        def fail(m):
            raise AssertionError("null constants fetched before x was validated")

        monkeypatch.setattr(dep_tests, "default_null_constants", fail)
        x = np.random.default_rng(2).random((30, 2))
        with pytest.raises(InvalidInputError):  # length mismatch
            xi_test_asymptotic(x[:20], np.arange(30.0), m=7)
        x[4, 1] = np.nan
        with pytest.raises(InvalidInputError):
            xi_test_asymptotic(x, np.arange(30.0), m=7)

    def test_parameter_validation(self):
        x = np.random.default_rng(3).random((30, 1))
        y = np.random.default_rng(4).random(30)
        with pytest.raises(InvalidInputError):
            xi_test_asymptotic(x, y, m=0, constants=EXACT_1D)
        with pytest.raises(InvalidInputError):
            xi_test_asymptotic(x, y, m=1, alpha=1.5, constants=EXACT_1D)

    def test_detects_strong_dependence(self):
        rng = np.random.default_rng(5)
        x = rng.random((100, 1))
        y = np.sin(6 * x[:, 0]) + 0.05 * rng.standard_normal(100)
        res = xi_test_asymptotic(x, y, m=1, constants=EXACT_1D)
        assert res.reject and res.p_value < 1e-4


class TestXiPermutation:
    def test_pvalues_live_on_lattice(self):
        rng = np.random.default_rng(6)
        B = 199
        for seed in range(5):
            x = rng.random((40, 1))
            y = rng.random(40)
            res = xi_test_permutation(x, y, B=B, seed=seed)
            lattice = round(res.p_value * (B + 1))
            assert res.p_value == pytest.approx(lattice / (B + 1), abs=1e-12)
            assert 1 <= lattice <= B + 1

    def test_monotone_function_maximally_significant(self):
        rng = np.random.default_rng(7)
        x = rng.random((100, 1))
        y = np.exp(3.0 * x[:, 0])  # strictly increasing in the first coordinate
        res = xi_test_permutation(x, y, B=199, seed=0)
        assert res.p_value == pytest.approx(1.0 / 200.0, abs=1e-12)
        assert res.reject

    def test_constant_response_gives_p_one(self):
        x = np.random.default_rng(8).random((20, 1))
        res = xi_test_permutation(x, np.ones(20), B=39, seed=0)
        assert res.p_value == 1.0
        assert not res.reject

    def test_decisions_invariant_under_monotone_response_transform(self):
        rng = np.random.default_rng(9)
        x = rng.random((60, 2))
        y = rng.random(60)
        a = xi_test_permutation(x, y, B=99, seed=3)
        b = xi_test_permutation(x, np.exp(y), B=99, seed=3)
        assert (a.statistic, a.p_value, a.reject) == (b.statistic, b.p_value, b.reject)
        c = xi_test_asymptotic(x, y, m=2, constants=EXACT_1D)
        d = xi_test_asymptotic(x, y**3, m=2, constants=EXACT_1D)
        assert (c.p_value, c.reject) == (d.p_value, d.reject)

    def test_permutation_null_mean_matches_exact_value(self):
        # permuted ranks form a uniform permutation independent of the
        # fixed graph, so the permutation null mean is also -1/(n-1)
        rng = np.random.default_rng(10)
        n = 60
        x = rng.random((n, 2))
        nn = None
        from manifold_xi.nn_graph import build_nn_graph
        nn = build_nn_graph(x).nn_index
        ranks = np.arange(1, n + 1)
        vals = []
        for _ in range(4000):
            r = ranks[rng.permutation(n)]
            s = int(np.minimum(r, r[nn]).sum())
            vals.append(6.0 * s / (n * n - 1.0) - (2.0 * n + 1.0) / (n - 1.0))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert vals.mean() == pytest.approx(-1.0 / (n - 1), abs=3 * se)

    def test_b_floor(self):
        x = np.random.default_rng(11).random((10, 1))
        with pytest.raises(InvalidInputError):
            xi_test_permutation(x, x[:, 0], B=5)

    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_index_gather_loop(self, ties):
        rng = np.random.default_rng(12)
        x = rng.random((80, 2))
        y = np.round(x[:, 0] + rng.random(80), 1 if ties else 12)
        nn = nn_graph.build_nn_graph(x).nn_index
        ranks = np.searchsorted(np.sort(y), y, side="right")
        observed = int(np.minimum(ranks, ranks[nn]).sum())
        perm = substream(4)
        exceed = 0
        for _ in range(99):
            r = ranks[perm.permutation(80)]
            exceed += int(np.minimum(r, r[nn]).sum()) >= observed
        assert xi_test_permutation(x, y, B=99, seed=4).p_value == (1 + exceed) / 100


class TestDistanceCorrelation:
    def test_identical_variables_give_one(self):
        y = np.random.default_rng(12).permutation(50).astype(float)
        assert dcor_stats(y[:, None], y).dcor2 == pytest.approx(1.0, abs=1e-12)

    def test_independent_uniforms_near_zero(self):
        rng = np.random.default_rng(13)
        assert dcor_stats(rng.random((4000, 1)), rng.random(4000)).dcor2 < 0.01

    def test_fixed_embedding_keeps_proportional_distances(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(200)
        x = np.column_stack([3.0 * y, 4.0 * y])  # distances scale by 5
        assert dcor_stats(x, y).dcor2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_inputs_flagged_as_zero(self):
        y = np.random.default_rng(15).random(20)
        st_ = dcor_stats(np.ones((20, 1)), y)
        assert st_.degenerate and st_.dcor2 == 0.0
        st_ = dcor_stats(y[:, None], np.full(20, 2.0))
        assert st_.degenerate and st_.dcor2 == 0.0

    def test_small_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            dcor_stats(np.zeros((3, 1)), np.zeros(3))

    @pytest.mark.parametrize("d", [1, 5, 17, 50])
    def test_distance_blocks_bound_scratch_and_keep_values(self, d, monkeypatch):
        rng = np.random.default_rng(16)
        n = 120
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        diff = x[:, None, :] - x[None, :, :]  # the all-at-once reference
        dist = np.sqrt((diff * diff).sum(axis=-1))
        reference = (dist - dist.mean(axis=1, keepdims=True)
                     - dist.mean(axis=0, keepdims=True) + dist.mean())
        monkeypatch.setattr(nn_graph, "_BRUTE_BLOCK_ENTRIES", n * n * d)
        one_block = dcor_stats(x, y)
        assert np.array_equal(_centred_distances(x), reference)
        bound = 7 * n * d
        monkeypatch.setattr(nn_graph, "_BRUTE_BLOCK_ENTRIES", bound)
        tracemalloc.start()
        try:
            blocked = dcor_stats(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocked == one_block
        assert np.array_equal(_centred_distances(x), reference)
        # two (rows, n, d) block temporaries live at once, plus at most six
        # (n, n) matrices: distances, a, b and the products dcor_stats
        # averages.  The all-at-once difference alone is n * n * d entries.
        assert peak <= 8 * (2 * bound + 6 * n * n)


class TestDcorPermutation:
    def test_statistic_invariant_under_joint_relabeling(self):
        rng = np.random.default_rng(16)
        x = rng.random((50, 2))
        y = rng.random(50)
        perm = rng.permutation(50)
        assert dcor_stats(x, y).dcor2 == pytest.approx(
            dcor_stats(x[perm], y[perm]).dcor2, abs=1e-12)

    def test_p_value_stable_under_joint_relabeling(self):
        rng = np.random.default_rng(17)
        x = rng.random((60, 1))
        y = x[:, 0] * 0.5 + 0.3 * rng.random(60)
        perm = rng.permutation(60)
        a = dcor_test_permutation(x, y, B=499, seed=1)
        b = dcor_test_permutation(x[perm], y[perm], B=499, seed=1)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert abs(a.p_value - b.p_value) <= 0.03

    def test_detects_linear_dependence(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((100, 1))
        y = x[:, 0] + 0.3 * rng.standard_normal(100)
        res = dcor_test_permutation(x, y, B=199, seed=2)
        assert res.p_value == pytest.approx(1.0 / 200.0, abs=1e-12)

    def test_degenerate_returns_p_one(self):
        x = np.random.default_rng(19).random((20, 1))
        res = dcor_test_permutation(x, np.zeros(20), B=39, seed=0)
        assert res.p_value == 1.0 and res.statistic == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x_refused(self, bad):
        x = np.random.default_rng(22).random((20, 1))
        x[3, 0] = bad
        y = np.arange(20.0)
        with pytest.raises(InvalidInputError):
            dcor_stats(x, y)
        with pytest.raises(InvalidInputError):
            dcor_test_permutation(x, y, B=39)

    def test_scalar_x_refused(self):
        with pytest.raises(InvalidInputError):
            dcor_stats(1.0, np.arange(5.0))
        with pytest.raises(InvalidInputError):
            dcor_test_permutation(1.0, np.arange(5.0), B=39)

    @pytest.mark.parametrize("kind", ["continuous", "tied", "outlier", "duplicate_x"])
    @pytest.mark.parametrize("B", [19, 199])
    @pytest.mark.parametrize("n", [4, 5, 30, 100, 400])
    def test_equals_the_gather_loop(self, n, B, kind):
        x, y = dcor_case(kind, n, np.random.default_rng(n))
        res = dcor_test_permutation(x, y, B=B, seed=n + B)
        assert (res.statistic, res.p_value) == dcor_permutation_by_gather(x, y, B, n + B)

    @pytest.mark.parametrize("kind", ["continuous", "tied", "outlier", "duplicate_x"])
    def test_slack_bounds_the_gather_free_value(self, kind):
        n = 30
        x, y = dcor_case(kind, n, np.random.default_rng(7))
        a = _centred_distances(x)
        b = _centred_distances(y)
        slack = dep_tests._dcor_slack(a, y)
        rng = substream(7)
        for perm in [np.arange(n)] + [rng.permutation(n) for _ in range(50)]:
            z = y[perm]
            fast = float((a * np.abs(z[:, None] - z[None, :])).sum())
            assert abs(fast - n * n * dep_tests._permuted_cross(a, b, perm)) <= slack

    @pytest.mark.parametrize("n", [4, 5])
    def test_exact_recheck_decides_repeated_identity(self, n, monkeypatch):
        # A drawn identity permutation reproduces the observed statistic, so
        # its fast value lies inside the rounding slack and must be re-checked.
        rechecked = []
        exact = dep_tests._permuted_cross

        def recording(a, b, perm):
            rechecked.append(tuple(perm))
            return exact(a, b, perm)

        monkeypatch.setattr(dep_tests, "_permuted_cross", recording)
        x, y = dcor_case("continuous", n, np.random.default_rng(n))
        res = dcor_test_permutation(x, y, B=199, seed=3)
        rng = substream(3)
        assert any((rng.permutation(n) == np.arange(n)).all() for _ in range(199))
        assert tuple(range(n)) in rechecked
        assert (res.statistic, res.p_value) == dcor_permutation_by_gather(x, y, 199, 3)

    @pytest.mark.parametrize("n", [2, 100, 10**5])
    def test_batched_draws_match_successive_permutations(self, n):
        # The kernel draws all B permutations in one call; if numpy ever
        # changes this, every dcor p-value moves.
        batched = substream(11).permuted(np.tile(np.arange(n), (3, 1)), axis=1)
        rng = substream(11)
        assert np.array_equal(batched, [rng.permutation(n) for _ in range(3)])

    @pytest.mark.parametrize("n", [2, 100, 10**5])
    def test_permuted_ranks_match_gathered_permutations(self, n):
        # The xi permutation test shuffles the ranks themselves; its p-values
        # equal the index-gather loop's only while these draws agree.
        ranks = np.arange(n, 0, -1) // 2  # tied, and not in index order
        shuffled, gathered = substream(13), substream(13)
        for _ in range(3):
            assert np.array_equal(shuffled.permuted(ranks),
                                  ranks[gathered.permutation(n)])

    def test_null_size_is_honest(self):
        rng = np.random.default_rng(20)
        rejections = 0
        reps = 400
        for rep in range(reps):
            x = rng.random((30, 1))
            y = rng.random(30)
            rejections += dcor_test_permutation(x, y, B=39, seed=rep).reject
        rate = rejections / reps
        assert abs(rate - 0.05) < 0.035  # 3 binomial sigmas at 400 reps


class TestAsymptoticPermutationAgreement:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_null_rejection_rates_agree(self, m):
        # both tests see the same replicate data, so their rejection-rate
        # difference is dominated by the genuine calibration gap
        constants = null_variance(m, o_samples=10**5, seed=50 + m)
        rng = np.random.default_rng(60 + m)
        reps, n = 2000, 100
        rej_asym = rej_perm = 0
        for rep in range(reps):
            x = rng.random((n, m))
            y = rng.random(n)
            rej_asym += xi_test_asymptotic(x, y, m, constants=constants).reject
            rej_perm += xi_test_permutation(x, y, B=199, seed=(8, m, rep)).reject
        assert abs(rej_asym - rej_perm) / reps < 0.02


class TestRunTest:
    def test_dispatches_every_method(self):
        rng = np.random.default_rng(23)
        x = rng.random((30, 1))
        y = rng.random(30)
        for method in METHODS:
            res = run_test(method, x, y, m=1, B=39, seed=5)
            assert res.method == method
        assert run_test("dcor_permutation", x, y, B=39, seed=5) == \
            dcor_test_permutation(x, y, B=39, seed=5)

    def test_refuses_unknown_method_and_missing_dimension(self):
        x, y = np.arange(10.0), np.arange(10.0)
        with pytest.raises(InvalidInputError):
            run_test("pearson", x, y)
        with pytest.raises(InvalidInputError):
            run_test("xi_asymptotic", x, y)


class TestResultRecord:
    def test_json_record_field_names(self):
        rng = np.random.default_rng(21)
        x = rng.random((30, 1))
        y = rng.random(30)
        rec = result_as_dict(xi_test_asymptotic(x, y, m=1, constants=EXACT_1D))
        assert set(rec) == {"method", "statistic", "z", "p", "reject", "alpha",
                            "m", "B", "seed"}
        assert rec["m"] == 1 and rec["B"] is None
        rec = result_as_dict(xi_test_permutation(x, y, B=19 + 10, seed=4))
        assert rec["z"] is None and rec["B"] == 29 and rec["seed"] == 4
