import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from manifold_xi import (
    DegenerateInputError,
    DuplicatePointsError,
    InvalidInputError,
    ManifoldXiError,
    TieError,
    build_nn_graph,
    compute_ranks,
    dcor_stats,
    dcor_test_permutation,
    null_variance,
    xi_n,
    xi_test_asymptotic,
    xi_test_permutation,
)
from manifold_xi import dep_tests, nn_graph, null_constants, rank_xi
from manifold_xi.dep_tests import METHODS, _centred_distances, result_as_dict, run_test
from manifold_xi.errors import as_real_array
from manifold_xi.rngs import substream

EXACT_1D = null_variance(1, source="closed_form")


def dcor_gather_hits(x, y, B, seed):
    """Reference dcor permutation draws: gather the relabelled centred ``y``
    matrix for every permutation.  Returns the statistic and, per draw,
    whether its cross product reaches the observed one."""
    a = _centred_distances(np.asarray(x, dtype=float))
    b = _centred_distances(np.asarray(y, dtype=float))
    norm = math.sqrt(float((a * a).mean()) * float((b * b).mean()))
    observed = float((a * b).mean())
    rng = substream(seed)
    hits = []
    for _ in range(B):
        perm = rng.permutation(len(y))
        hits.append(float((a * b[np.ix_(perm, perm)]).mean()) >= observed)
    return min(max(observed, 0.0) / norm, 1.0), hits


def dcor_permutation_by_gather(x, y, B, seed):
    """Reference dcor permutation test: ``(statistic, p_value)``."""
    stat, hits = dcor_gather_hits(x, y, B, seed)
    return stat, (1.0 + sum(hits)) / (B + 1.0)


def xi_shuffle_hits(x, y, B, seed):
    """Reference xi permutation draws: shuffle the ranks ``B`` times from
    ``substream(seed)``; per draw, whether its rank sum reaches the observed."""
    ranks = rank_xi.compute_ranks(y)
    nn = nn_graph.build_nn_graph(x).nn_index
    observed = int(np.minimum(ranks, ranks[nn]).sum())
    rng = substream(seed)
    hits = []
    for _ in range(B):
        shuffled = ranks.copy()
        rng.shuffle(shuffled)
        hits.append(int(np.minimum(shuffled, shuffled[nn]).sum()) >= observed)
    return hits


def first_stop(hits, alpha, B):
    """The first draw count ``t`` at which the exceedances among the first
    ``t`` draws give ``(1 + k) / (B + 1) > alpha``, or ``B`` if none does."""
    k = 0
    for t, hit in enumerate(hits):
        if (1.0 + k) / (B + 1.0) > alpha:
            return t
        k += hit
    return B


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

    @pytest.mark.parametrize("levels", ["binary", "three", "rounded", "one_tie"])
    def test_tied_response_refused_before_the_constants(self, monkeypatch, levels):
        # sigma^2(m) assumes a continuous response: with binary y on the square
        # the test rejected in every one of 200 null replicates at n=200
        def fail(m):
            raise AssertionError("null constants fetched for a tied response")

        monkeypatch.setattr(dep_tests, "default_null_constants", fail)
        rng = np.random.default_rng(31)
        x = rng.random((200, 2))
        y = {"binary": rng.integers(0, 2, 200).astype(float),
             "three": rng.integers(0, 3, 200).astype(float),
             "rounded": np.round(rng.random(200), 1),
             "one_tie": np.r_[rng.random(198), 0.5, 0.5]}[levels]
        for test in (lambda: xi_test_asymptotic(x, y, m=2),
                     lambda: run_test("xi_asymptotic", x, y, m=2)):
            with pytest.raises(TieError, match="xi_permutation"):
                test()

    @pytest.mark.parametrize("kind", ["lattice", "ten_levels", "one_copy"])
    def test_duplicate_rows_refused_before_the_constants(self, monkeypatch, kind):
        # copies of a row all point to one owner, so the graph is a set of
        # stars that sigma^2(m) does not describe: with x on 10 levels and
        # an independent y the two-sided size was 0.84 at n=1000
        def fail(m):
            raise AssertionError("null constants fetched for duplicate rows")

        monkeypatch.setattr(dep_tests, "default_null_constants", fail)
        rng = np.random.default_rng(35)
        x = {"lattice": rng.integers(0, 6, (200, 2)).astype(float),
             "ten_levels": rng.integers(0, 10, (200, 1)).astype(float),
             "one_copy": np.r_[rng.random((199, 3)), [[0.5, -0.0, 2.0]]]}[kind]
        if kind == "one_copy":
            x[7] = [0.5, 0.0, 2.0]
        y = rng.random(200)
        for test in (lambda: xi_test_asymptotic(x, y, m=1),
                     lambda: run_test("xi_asymptotic", x, y, m=1)):
            with pytest.raises(DuplicatePointsError, match="xi_permutation"):
                test()
        with pytest.raises(TieError):  # the tie check comes first
            xi_test_asymptotic(x, np.round(y, 1), m=1)
        assert xi_test_permutation(x, y, B=19).B == 19  # exact for any x

    @pytest.mark.parametrize("n,d,m", [(50, 1, 1), (300, 3, 2), (2000, 2, 2), (225, 2, 2)])
    def test_distinct_rows_keep_their_result(self, n, d, m):
        # the duplicate check changes nothing on distinct rows, among them a
        # full lattice, whose column 0 repeats while its rows do not
        rng = np.random.default_rng(n + d)
        x = (np.stack(np.meshgrid(np.arange(15.0), np.arange(15.0)), -1).reshape(-1, 2)
             if n == 225 else rng.random((n, d)))
        y = rng.random(n)
        sigma2 = null_variance(m).sigma2 if m > 1 else EXACT_1D.sigma2
        z = math.sqrt(n) * xi_n(x, y).value / math.sqrt(sigma2)
        for tail, p in (("right", float(special.ndtr(-z))),
                        ("two_sided", 2.0 * float(special.ndtr(-abs(z))))):
            res = xi_test_asymptotic(x, y, m=m, tail=tail,
                                     constants=EXACT_1D if m == 1 else None)
            assert (res.statistic, res.z_score, res.p_value) == (xi_n(x, y).value, z, p)

    def test_constants_for_another_m_refused(self):
        rng = np.random.default_rng(33)
        x, y = rng.random((30, 3)), rng.random(30)
        with pytest.raises(InvalidInputError, match="constants are for m=1, not m=3"):
            xi_test_asymptotic(x, y, m=3, constants=EXACT_1D)

    @pytest.mark.parametrize("bad", ["bad", {"m": 2, "sigma2": 0.8}, 2.0])
    def test_constants_of_another_type_refused(self, bad):
        rng = np.random.default_rng(34)
        x, y = rng.random((30, 2)), rng.random(30)
        with pytest.raises(InvalidInputError, match="constants must be NullConstants"):
            xi_test_asymptotic(x, y, 2, constants=bad)
        with pytest.raises(TieError):  # the tie check comes first
            xi_test_asymptotic(x, np.round(y, 1), 2, constants=bad)

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

    def test_too_large_m_refused_before_any_draw(self, monkeypatch):
        def fail(*args):
            raise AssertionError("drew samples for a refused dimension")

        monkeypatch.setattr(null_constants, "substream", fail)
        x = np.random.default_rng(2).random((30, 2))
        with pytest.raises(InvalidInputError, match="m must be below 342"):
            xi_test_asymptotic(x, np.arange(30.0), m=342)

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

    def test_constant_response_refused(self):
        x = np.random.default_rng(8).random((20, 1))
        with pytest.raises(DegenerateInputError, match="constant response"):
            xi_test_permutation(x, np.ones(20), B=39, seed=0)

    def test_tied_statistic_is_the_tie_robust_coefficient(self):
        rng = np.random.default_rng(13)
        x = rng.random((200, 2))
        y = rng.integers(0, 2, 200).astype(float)
        res = xi_test_permutation(x, y, B=99, seed=1)
        assert res.statistic == xi_n(x, y).value
        assert abs(res.statistic) < 0.3  # the tie-free expression gives 1.80

    @pytest.mark.parametrize("levels", ["binary", "three", "rounded"])
    def test_size_holds_on_tied_responses(self, levels):
        rng = np.random.default_rng(14)
        reps, rejections = 200, 0
        for rep in range(reps):
            x = rng.random((100, 2))
            y = {"binary": rng.integers(0, 2, 100).astype(float),
                 "three": rng.integers(0, 3, 100).astype(float),
                 "rounded": np.round(rng.standard_normal(100), 1)}[levels]
            rejections += xi_test_permutation(x, y, B=99, seed=rep).reject
        assert rejections / reps <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)

    def test_decisions_invariant_under_monotone_response_transform(self):
        rng = np.random.default_rng(9)
        x = rng.random((60, 2))
        y = rng.random(60)
        a = xi_test_permutation(x, y, B=99, seed=3)
        b = xi_test_permutation(x, np.exp(y), B=99, seed=3)
        assert (a.statistic, a.p_value, a.reject) == (b.statistic, b.p_value, b.reject)
        c = xi_test_asymptotic(x, y, m=1, constants=EXACT_1D)
        d = xi_test_asymptotic(x, y**3, m=1, constants=EXACT_1D)
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

    @pytest.mark.parametrize("kind", ["continuous", "tied", "duplicate_x"])
    @pytest.mark.parametrize("B", [19, 199])
    @pytest.mark.parametrize("n", [4, 30, 100, 256, 257, 1000])
    def test_p_value_equals_the_shuffle_replay(self, n, B, kind):
        # blocks of 13 draws at n = 100 and 2 at n = 256, one draw from 257 on
        x, y = dcor_case(kind, n, np.random.default_rng(n))
        res = xi_test_permutation(x, y, B=B, seed=n + B)
        assert res.p_value == (1 + sum(xi_shuffle_hits(x, y, B, n + B))) / (B + 1)


class TestOneResponsePath:
    @pytest.fixture
    def counted_ranks(self, monkeypatch):
        calls = []
        ranks = rank_xi.compute_ranks

        def counted(y):
            calls.append(len(y))
            return ranks(y)

        monkeypatch.setattr(rank_xi, "compute_ranks", counted)
        return calls

    def test_each_xi_entry_point_ranks_the_response_once(self, counted_ranks):
        rng = np.random.default_rng(15)
        x, y = rng.random((50, 2)), rng.random(50)
        for call in (lambda: xi_n(x, y),
                     lambda: xi_test_asymptotic(x, y, m=1, constants=EXACT_1D),
                     lambda: xi_test_permutation(x, y, B=19)):
            counted_ranks.clear()
            call()
            assert counted_ranks == [50]

    def test_asymptotic_test_does_not_call_xi_n(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("xi_test_asymptotic called xi_n")

        monkeypatch.setattr(rank_xi, "xi_n", fail)
        monkeypatch.setattr(dep_tests, "xi_n", fail, raising=False)
        rng = np.random.default_rng(16)
        x, y = rng.random((50, 2)), rng.random(50)
        res = xi_test_asymptotic(x, y, m=1, constants=EXACT_1D)
        monkeypatch.undo()
        assert res.statistic == xi_n(x, y).value


def first_outcome(calls):
    """The results of ``calls`` in turn, or the first refusal as
    ``(type, message)``."""
    results = []
    for call in calls:
        try:
            results.append(call())
        except InvalidInputError as exc:
            return type(exc), str(exc)
    return results


SHARED_ORDERS = [("xi_asymptotic", "xi_permutation", "dcor_permutation"),
                 ("dcor_permutation", "xi_permutation", "xi_asymptotic"),
                 ("dcor_permutation",), ("xi_permutation", "xi_asymptotic")]


def shared_sample_pairs():
    """Pairs each test takes or refuses, by kind."""
    rng = np.random.default_rng(28)
    x, y = rng.random((30, 2)), rng.random(30)
    return {
        "continuous": (x, y),
        "constant": (x, np.full(30, 2.5)),
        "tied": (x, np.round(y, 1)),
        "duplicate_x": (np.vstack([x[:15], x[:15]]), y),
        "length": (x, y[:29]),
        "three_rows": (x[:3], y[:3]),
        "non_finite_x": (np.where(x > 0.9, np.inf, x), y),
        "complex_y": (x, y + 1j),
        "text_y": (x, ["a"] * 30),
        "two_d_y": (x, x),
    }


SHARED_PAIRS = shared_sample_pairs()


class TestOneSharedSample:
    """The harness's entry point runs several tests on one prepared sample;
    each decides and refuses as the public test run alone does."""

    @pytest.mark.parametrize("methods", SHARED_ORDERS, ids="-".join)
    @pytest.mark.parametrize("kind", list(SHARED_PAIRS))
    def test_results_and_refusals_equal_the_public_tests_in_turn(self, kind, methods):
        x, y = SHARED_PAIRS[kind]
        seeds = [(5, k) for k in range(len(methods))]
        public = first_outcome([
            lambda method=method, seed=seed: run_test(method, x, y, 0.05, m=2, B=39, seed=seed)
            for method, seed in zip(methods, seeds)])
        shared = first_outcome([
            lambda: dep_tests._run_tests(methods, x, y, seeds, 0.05, 2, "right", 39)])
        assert shared == (public if isinstance(public, tuple) else [public])

    def test_constant_response_refused_for_xi_and_p_one_for_dcor(self):
        x, y = SHARED_PAIRS["constant"]
        res = dep_tests._run_tests(("dcor_permutation",), x, y, [0], 0.05, None, "right",
                                   199, _stop_at_decision=True)[0]
        assert (res.p_value, res.reject) == (1.0, False)
        for methods in (("dcor_permutation", "xi_asymptotic"), ("xi_permutation",)):
            with pytest.raises(DegenerateInputError, match="constant response"):
                dep_tests._run_tests(methods, x, y, [0, 1], 0.05, 2, "right", 199,
                                     _stop_at_decision=True)

    @pytest.mark.parametrize("kind", ["continuous", "tied", "outlier", "duplicate_x"])
    def test_dcor_leaves_the_shared_matrix_unchanged(self, kind):
        x, y = dcor_case(kind, 40, np.random.default_rng(29))
        sample = rank_xi._xi_sample(x, y, dcor=True)
        before = sample.sqdist.copy()
        res = dep_tests._dcor_permutation(sample, 0.05, B=199, seed=3)
        assert np.array_equal(sample.sqdist.view(np.int64), before.view(np.int64))
        assert res == dcor_test_permutation(x, y, B=199, seed=3)
        assert np.array_equal(rank_xi._xi_statistic(sample)[0], build_nn_graph(x).nn_index)


class TestRefusedBeforeTheGraph:
    """A refused xi input builds no NN graph."""

    @pytest.fixture
    def graphs(self, monkeypatch):
        rows = []
        build = rank_xi.build_nn_graph

        def counted(cloud):
            rows.append(cloud.n)
            return build(cloud)

        monkeypatch.setattr(rank_xi, "build_nn_graph", counted)
        return rows

    def test_each_refusal_comes_before_the_graph(self, graphs):
        rng = np.random.default_rng(17)
        x, y = rng.random((40, 2)), rng.random(40)
        tied = np.round(y, 1)
        duplicated = np.vstack([x[:20], x[:20]])
        refusals = [
            (DegenerateInputError, lambda: xi_n(x, np.full(40, 1.5))),
            (DegenerateInputError, lambda: xi_test_asymptotic(x, np.full(40, 1.5), m=1,
                                                              constants=EXACT_1D)),
            (DegenerateInputError, lambda: xi_test_permutation(x, np.full(40, 1.5), B=19)),
            (DuplicatePointsError, lambda: xi_n(duplicated, y, strict=True)),
            (TieError, lambda: xi_n(x, tied, strict=True)),
            (TieError, lambda: xi_test_asymptotic(x, tied, m=1, constants=EXACT_1D)),
            (DuplicatePointsError, lambda: xi_test_asymptotic(duplicated, y, m=1,
                                                              constants=EXACT_1D)),
            (InvalidInputError, lambda: xi_test_asymptotic(x, y, m=3, constants=EXACT_1D)),
            (InvalidInputError, lambda: xi_test_asymptotic(x, y, m=1, constants="bad")),
        ]
        for error, call in refusals:
            with pytest.raises(error):
                call()
        assert graphs == []
        for call in (lambda: xi_n(x, y), lambda: xi_test_permutation(x, y, B=19),
                     lambda: xi_test_asymptotic(x, y, m=1, constants=EXACT_1D)):
            call()
        assert graphs == [40, 40, 40]  # one graph per accepted call, seen by the spy


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
        # the all-at-once reference, its squares added coordinate by
        # coordinate in an explicit running sum
        diff = x[:, None, :] - x[None, :, :]
        sq = diff[..., 0] * diff[..., 0]
        for j in range(1, d):
            sq += diff[..., j] * diff[..., j]
        dist = np.sqrt(sq)
        reference = (dist - dist.mean(axis=1, keepdims=True)
                     - dist.mean(axis=0, keepdims=True) + dist.mean())
        monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", n * n * d)
        one_block = dcor_stats(x, y)
        assert np.array_equal(_centred_distances(x), reference)
        bound = 7 * n * d
        monkeypatch.setattr(nn_graph, "_SQDIST_BLOCK_ENTRIES", bound)
        tracemalloc.start()
        try:
            blocked = dcor_stats(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocked == one_block
        assert np.array_equal(_centred_distances(x), reference)
        # one (rows, n, d) block of squared differences, its row sums and
        # the (d, n, 2) difference factors stay within two blocks, plus at
        # most six (n, n) matrices: distances, a, b and the products
        # dcor_stats averages.  The all-at-once difference alone is n * n * d
        # entries.
        assert peak <= 8 * (2 * bound + 6 * n * n)

    def test_scratch_peak_stays_near_three_matrices(self):
        # a, b and one reused product buffer (stats), or a, b, one block of
        # |z_i - z_j| and the (B, n) permutations (the test); before, the
        # centring temporaries and the three products made 5.0 n^2
        rng = np.random.default_rng(24)
        n = 600
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        for call in (lambda: dcor_stats(x, y), lambda: dcor_test_permutation(x, y)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * 8 * n * n


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

    def test_degenerate_input_still_checks_the_seed(self):
        x = np.random.default_rng(19).random((30, 1))
        with pytest.raises(InvalidInputError, match="seed"):
            dcor_test_permutation(x, np.ones(30), seed=-1)

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

    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    @pytest.mark.parametrize("n", [4, 5, 7, 101])
    def test_packed_pairs_equal_the_gather_loop(self, n, kind):
        # the four row blocks of the packed fill: one row each at n=4, a short
        # last block at n=5, 7 and 101; power-of-two scales beyond the
        # prescale change no bit of the statistic or the p-value
        x, y = dcor_case(kind, n, np.random.default_rng(n + 50))
        expected = dcor_permutation_by_gather(x, y, 199, n)
        for sx, sy in [(1.0, 1.0), (2.0**600, 2.0**600), (2.0**-600, 2.0**-600),
                       (2.0**300, 2.0**-300), (2.0**-300, 2.0**300)]:
            res = dcor_test_permutation(x * sx, y * sy, B=199, seed=n)
            assert (res.statistic, res.p_value) == expected, (sx, sy)

    @pytest.mark.parametrize("case", ["huge", "tiny", "huge_x_tiny_y", "near_constant",
                                      "one_step"])
    def test_packed_value_lies_within_the_slack(self, case):
        # n = 41 leaves the fourth row block short; every block size of
        # permutations fills the same packed pairs
        n = 41
        rng = np.random.default_rng(43)
        x, y = dcor_case("continuous", n, rng)
        sx, sy = {"huge": (1e100, 1e100), "tiny": (1e-100, 1e-100),
                  "huge_x_tiny_y": (1e120, 1e-120)}.get(case, (1.0, 1.0))
        x, y = x * sx, y * sy
        if case == "near_constant":
            y = 1.0 + 1e-12 * rng.random(n)
        elif case == "one_step":
            y = np.full(n, 3.0)
            y[[0, 5]] += 2.0**-40
        a, b = _centred_distances(x), _centred_distances(y)
        slack = dep_tests._dcor_slack(a, y)
        perms = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(60)])
        for block in (1, 7, len(perms)):
            pair_sums = dep_tests._pair_sums(a, block)
            for start in range(0, len(perms), block):
                chunk = perms[start:start + block]
                for perm, fast in zip(chunk, pair_sums(y[chunk])):
                    exact = n * n * dep_tests._permuted_cross(a, b, perm)
                    assert abs(fast - exact) <= slack, (block, start)

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
        # The kernel draws its B permutations block by block; if numpy ever
        # makes one (B, n) call, successive blocks or successive
        # permutation(n) draws differ, every dcor p-value moves.
        B = 199
        batched = substream(11).permuted(np.tile(np.arange(n), (B, 1)), axis=1)
        rng = substream(11)
        assert all(np.array_equal(row, rng.permutation(n)) for row in batched)
        for block in (13, 7):  # neither divides B
            tile = np.tile(np.arange(n), (block, 1))
            rng = substream(11)
            assert all(np.array_equal(batched[start:start + block],
                                      rng.permuted(tile[:B - start], axis=1))
                       for start in range(0, B, block))
            # the permutation tests' one loop refills and permutes one buffer in place
            buf, rng = np.empty_like(tile), substream(11)
            for start in range(0, B, block):
                z = buf[:B - start]
                z[...] = np.arange(n)
                assert rng.permuted(z, axis=1, out=z) is z
                assert np.array_equal(batched[start:start + block], z)

    @pytest.mark.parametrize("n", [2, 100, 10**5])
    def test_permuted_ranks_match_gathered_permutations(self, n):
        # The xi permutation test permutes the ranks themselves; its p-values
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


class CountingStream:
    """A generator that counts the permutations drawn from it."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def permuted(self, x, axis, out=None):
        self.drawn += len(x)
        return self.rng.permuted(x, axis=axis, out=out)


@pytest.fixture
def draws(monkeypatch):
    """The streams the permutation tests draw from, in call order."""
    streams = []

    def counting(seed):
        streams.append(CountingStream(substream(seed)))
        return streams[-1]

    monkeypatch.setattr(dep_tests, "substream", counting)
    return streams


ALPHAS = (0.001, 0.01, 0.05, 0.5)


def harness_test(method, x, y, alpha, B, seed=0, stop=True):
    """One permutation test as the simulation harness runs it: through the
    private entry point, stopped once its decision is fixed if ``stop``."""
    return dep_tests._run_tests((method,), x, y, (seed,), alpha, None, "right", B,
                                _stop_at_decision=stop)[0]


class TestStopAtDecision:
    """The harness's stopped tests decide exactly as the full-B tests do."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("B", [19, 199])
    @pytest.mark.parametrize("sample", ["null", "dependent"])
    def test_stops_at_the_first_draw_above_alpha(self, sample, B, alpha, draws):
        # Replayed outside the tests: both tests stop at the first block
        # boundary at or after the first draw t above alpha.
        rng = np.random.default_rng(21)
        x = rng.random((30, 2))
        y = rng.random(30) if sample == "null" else x[:, 0] + 0.3 * rng.random(30)
        t_xi = first_stop(xi_shuffle_hits(x, y, B, 7), alpha, B)
        t_dcor = first_stop(dcor_gather_hits(x, y, B, 7)[1], alpha, B)
        harness_test("xi_permutation", x, y, alpha, B, seed=7)
        harness_test("dcor_permutation", x, y, alpha, B, seed=7)
        block = min(B, dep_tests._PERMUTATION_BLOCK_ENTRIES // 30**2)
        assert draws[0].drawn == min(B, -(-t_xi // block) * block)
        assert draws[1].drawn == min(B, -(-t_dcor // block) * block)

    @pytest.mark.parametrize("kind", ["continuous", "tied", "outlier", "duplicate_x"])
    @pytest.mark.parametrize("B", [19, 199])
    @pytest.mark.parametrize("n", [4, 5, 30, 100])
    def test_dcor_decision_equals_the_gather_loop(self, n, B, kind):
        x, y = dcor_case(kind, n, np.random.default_rng(n))
        stat, p_full = dcor_permutation_by_gather(x, y, B, n + B)
        for alpha in ALPHAS:
            res = harness_test("dcor_permutation", x, y, alpha, B, seed=n + B)
            assert res.statistic == stat and res.B == B
            assert res.reject == (p_full <= alpha)
            if res.p_value != p_full:  # stopped: a lower bound above alpha
                assert alpha < res.p_value < p_full and not res.reject

    @pytest.mark.parametrize("kind", ["continuous", "tied", "outlier", "duplicate_x"])
    @pytest.mark.parametrize("B", [19, 199])
    @pytest.mark.parametrize("n", [4, 5, 30, 100])
    def test_xi_decision_equals_the_public_test(self, n, B, kind):
        x, y = dcor_case(kind, n, np.random.default_rng(n))
        for alpha in ALPHAS:
            full = xi_test_permutation(x, y, alpha, B=B, seed=n + B)
            res = harness_test("xi_permutation", x, y, alpha, B, seed=n + B)
            assert res.statistic == full.statistic and res.B == B
            assert res.reject == full.reject
            if res.p_value != full.p_value:
                assert alpha < res.p_value < full.p_value and not res.reject

    @pytest.mark.parametrize("stop", [False, True])
    def test_constant_response_is_decided_as_before(self, stop):
        x = np.random.default_rng(3).random((30, 2))
        y = np.full(30, 2.5)
        res = harness_test("dcor_permutation", x, y, 0.05, 199, stop=stop)
        assert (res.p_value, res.reject) == (1.0, False)
        with pytest.raises(DegenerateInputError):
            harness_test("xi_permutation", x, y, 0.05, 199, stop=stop)

    @pytest.mark.parametrize("test", [dcor_test_permutation, xi_test_permutation])
    def test_null_stops_early_and_dependence_draws_all(self, test, draws):
        rng = np.random.default_rng(5)
        x = rng.random((100, 2))
        method = test.__name__.replace("_test_", "_")
        null = harness_test(method, x, rng.random(100), 0.05, 199)
        strong = harness_test(method, x, x[:, 0] + 0.01 * rng.random(100), 0.05, 199)
        assert not null.reject and strong.reject
        block = dep_tests._PERMUTATION_BLOCK_ENTRIES // 100**2  # 13 rows at n = 100
        assert draws[0].drawn <= 199 - 199 % block  # never reached the last block
        assert draws[1].drawn == 199

    @pytest.mark.parametrize("method", ["xi_permutation", "dcor_permutation"])
    def test_level_below_one_over_b_plus_one_draws_nothing(self, method, draws):
        rng = np.random.default_rng(6)
        x = rng.random((30, 2))
        y = x[:, 0] + 0.01 * rng.random(30)  # the full test's p is 1/200
        res = harness_test(method, x, y, 0.001, 199)
        assert draws[0].drawn == 0
        assert (res.p_value, res.reject) == (1.0 / 200.0, False)

    @pytest.mark.parametrize("method", ["xi_permutation", "dcor_permutation"])
    def test_every_public_call_draws_all_b(self, method, draws):
        rng = np.random.default_rng(8)
        x, y = rng.random((30, 2)), rng.random(30)  # a null sample
        for alpha in ALPHAS:
            run_test(method, x, y, alpha, B=199)
        assert [stream.drawn for stream in draws] == [199] * len(ALPHAS)


class TestOverflowingDistances:
    """Each cloud is scaled once by an exact power of two (``_prescaled``),
    so samples whose squared distances would overflow or underflow give
    the statistics of the unscaled sample."""

    @pytest.fixture
    def sample(self):
        rng = np.random.default_rng(23)
        x = rng.random((120, 2))
        return x, x.sum(axis=1) + 0.1 * rng.random(120)

    @pytest.mark.parametrize("call", [
        lambda x, y, s: xi_n(x * s, y * s),
        lambda x, y, s: xi_test_asymptotic(x * s, y * s, 2),
        lambda x, y, s: xi_test_permutation(x * s, y * s),
        lambda x, y, s: dcor_test_permutation(x * s, y),
        lambda x, y, s: dcor_test_permutation(x, y * s),
        lambda x, y, s: dcor_stats(x * s, y).dcor2,
        lambda x, y, s: dcor_stats(x, y * s).dcor2,
    ], ids=["xi_n", "xi_asymptotic", "xi_permutation", "dcor_perm_x",
            "dcor_perm_y", "dcor_stats_x", "dcor_stats_y"])
    def test_every_entry_point_is_scale_free(self, sample, call):
        # unprescaled, 2**600 overflows the squared distances and 2**-600
        # underflows them
        unscaled = call(*sample, 1.0)
        for scale in (2.0**600, 2.0**-600):
            assert call(*sample, scale) == unscaled  # statistic and p-value, bit for bit

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    @pytest.mark.parametrize("scaled", ["x", "y"])
    def test_extreme_scales_give_finite_statistics(self, sample, scale, scaled):
        x, y = sample
        x, y = (x * scale, y) if scaled == "x" else (x, y * scale)
        calls = [lambda: xi_n(x, y).value, lambda: dcor_stats(x, y).dcor2,
                 lambda: build_nn_graph(x).nn_index, lambda: compute_ranks(y)]
        calls += [lambda method=method: run_test(method, x, y, m=2, B=19)
                  for method in METHODS]
        for call in calls:
            try:
                out = call()
            except ManifoldXiError:
                continue
            if isinstance(out, dep_tests.TestResult):
                out = [out.statistic, out.p_value]
            assert np.isfinite(out).all()

    def test_dcor_building_blocks_scale_back(self, sample):
        # dcov2 and dvar_* carry the scale: exact powers of two, inf past
        # the float range and 0 below it, without a RuntimeWarning
        x, y = sample
        base = dcor_stats(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (100, 300, -300, 600, -600):
                got = dcor_stats(x * 2.0**k, y * 2.0**-k)
                assert got.dcor2 == base.dcor2 and not got.degenerate
                assert got.dcov2 == base.dcov2  # the two scales cancel
                with np.errstate(over="ignore"):
                    assert got.dvar_x == np.ldexp(base.dvar_x, 2 * k)
                    assert got.dvar_y == np.ldexp(base.dvar_y, -2 * k)
            assert dcor_stats(x * 2.0**600, y).dvar_x == math.inf
            assert dcor_stats(x, y * 2.0**-600).dvar_y == 0.0
            assert dcor_stats(x * 2.0**600, y * 2.0**600).dcov2 == math.inf

    def test_results_below_the_overflow_are_unchanged(self, sample):
        x, y = sample
        big = x * 2.0**500  # squared distances stay below 2**1024
        assert xi_n(big, y) == xi_n(x, y)
        assert dcor_test_permutation(big, y).p_value == dcor_test_permutation(x, y).p_value


class TestNonRealInput:
    """Complex, non-numeric and ragged samples are refused, naming x or
    the response, instead of losing an imaginary part or raising numpy's
    own ``ValueError`` or ``TypeError``."""

    BAD = {  # (x, y)
        "complex": ([[1 + 1j], [2], [3], [4]], [1 + 1j, 2, 3, 4]),
        "complex_objects": (np.array([[np.complex128(1j)], [2], [3], [None]], dtype=object),
                            np.array([np.complex128(1j), 2, 3, None], dtype=object)),
        "text": ([["a"], ["b"], ["c"], ["d"]], ["a", "b", "c", "d"]),
        "ragged": ([[1.0], [2.0, 3.0], [4.0], [5.0]], [1.0, [2.0, 3.0], 4.0, 5.0]),
        "mapping": ({"a": 1}, {"a": 1}),
    }
    CALLS = {
        "xi_n": xi_n,
        "dcor_stats": dcor_stats,
        "xi_permutation": lambda x, y: xi_test_permutation(x, y, B=19),
        "dcor_permutation": lambda x, y: dcor_test_permutation(x, y, B=19),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_every_entry_point_refuses(self, call, bad):
        good = np.arange(4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(InvalidInputError, match="^x must hold real numbers"):
                call(bad[0], good)
            with pytest.raises(InvalidInputError, match="^response must hold real numbers"):
                call(good, bad[1])

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_graph_and_ranks_refuse(self, bad):
        with pytest.raises(InvalidInputError, match="^x must hold real numbers"):
            build_nn_graph(bad[0])
        with pytest.raises(InvalidInputError, match="^response must hold real numbers"):
            compute_ranks(bad[1])

    def test_real_input_is_not_copied(self):
        y = np.arange(5.0)
        assert as_real_array("response", y) is y
        assert as_real_array("x", [True, 2, 3.5]).tolist() == [1.0, 2.0, 3.5]


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
    def test_methods_are_pinned(self):
        # The benchmark canary runs dep_tests.METHODS as one config's methods,
        # and each replicate seed follows a method's position in it, so its
        # names, their order and its type (a config takes a tuple) stay put.
        assert METHODS == ("xi_asymptotic", "xi_permutation", "dcor_permutation")
        assert type(METHODS) is tuple

    def test_dispatches_every_method(self):
        rng = np.random.default_rng(23)
        x = rng.random((30, 1))
        y = rng.random(30)
        public = {"xi_asymptotic": lambda: xi_test_asymptotic(x, y, 1),
                  "xi_permutation": lambda: xi_test_permutation(x, y, B=39, seed=5),
                  "dcor_permutation": lambda: dcor_test_permutation(x, y, B=39, seed=5)}
        assert tuple(public) == METHODS
        for method in METHODS:
            res = run_test(method, x, y, m=1, B=39, seed=5)
            assert res.method == method
            assert res == public[method]()

    def test_refuses_unknown_method_and_missing_dimension(self):
        x, y = np.arange(10.0), np.arange(10.0)
        with pytest.raises(InvalidInputError):
            run_test("pearson", x, y)
        with pytest.raises(InvalidInputError):
            run_test("xi_asymptotic", x, y)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [dict(seed=-1), dict(seed=(1.5, 0)), dict(seed=(0, -1)),
                                     dict(B=5), dict(m=-4), dict(m=1.5), dict(tail="bogus")],
                             ids=["seed", "tuple_seed", "tuple_path", "B", "m", "float_m",
                                  "tail"])
    def test_checks_every_argument_for_every_method(self, method, bad):
        x = np.random.default_rng(25).random((30, 1))
        with pytest.raises(InvalidInputError, match=f"^{next(iter(bad))} must"):
            run_test(method, x, np.ones(30), **{"m": 1, **bad})

    @pytest.mark.parametrize("test, bad, first", [
        (xi_test_permutation, dict(B=5), "B must"),
        (dcor_test_permutation, dict(seed=-1), "seed must"),
        (xi_test_asymptotic, dict(m=0, tail="bogus"), "m must"),
        (xi_test_asymptotic, dict(m=1, tail="bogus"), "tail must"),
        (xi_test_asymptotic, dict(m=None), "xi_asymptotic requires the intrinsic dimension m"),
    ], ids=["xi_permutation_B", "dcor_seed", "asymptotic_m", "asymptotic_tail",
            "asymptotic_no_m"])
    def test_public_tests_check_alpha_last(self, test, bad, first):
        # The public tests share run_test's one check of the arguments, so
        # with a bad alpha and another bad argument they name the other one.
        x = np.random.default_rng(26).random((30, 1))
        with pytest.raises(InvalidInputError, match=f"^{first}"):
            test(x, x[:, 0], alpha=2.0, **bad)
        with pytest.raises(InvalidInputError, match="^alpha must"):
            test(x, x[:, 0], alpha=2.0, **({"m": 1} if test is xi_test_asymptotic else {}))


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
