import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from manifold_xi import (
    REFERENCE_PAIR_LIMITS,
    REFERENCE_TRIPLE_LIMITS,
    TRIPLE_LIMIT_1D,
    InvalidInputError,
    ball_geometry,
    ball_volume,
    estimate_constants_empirical,
    nn_pair_limit,
    nn_triple_limit_mc,
    null_constants,
    null_variance,
)
from manifold_xi.null_constants import _cap_fractions, write_constants_csv
from manifold_xi.rngs import substream


def _betainc_cap_fractions(m, c_over_r):
    x = 1.0 - c_over_r * c_over_r
    np.clip(x, 0.0, 1.0, out=x)
    minor = 0.5 * special.betainc((m + 1) / 2.0, 0.5, x)
    return np.where(c_over_r >= 0.0, minor, 1.0 - minor)


def _reference_union_volumes(m, r1, r2, dist):
    vm = ball_volume(m)
    v1 = vm * r1**m
    v2 = vm * r2**m
    rmin = np.minimum(r1, r2)
    rmax = np.maximum(r1, r2)
    disjoint = dist >= r1 + r2
    contained = dist + rmin <= rmax
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
        c2 = dist - c1
        lens = (v1 * _betainc_cap_fractions(m, c1 / r1)
                + v2 * _betainc_cap_fractions(m, c2 / r2))
    inter = np.where(contained, vm * rmin**m, np.where(disjoint, 0.0, lens))
    return v1 + v2 - inter


def _reference_triple_limit_mc(m, samples, seed, block_size):
    """The triple-limit sampler with explicit points: normalised directions,
    the gap as a norm, betainc caps and the union volume subtracted from
    the two ball volumes.  Same draws, same order."""
    vm = ball_volume(m)
    sums = sq_sums = 0.0
    for block in range(-(-samples // block_size)):
        size = min(block_size, samples - block * block_size)
        rng = substream(seed, block)
        radius = (rng.exponential(size=(2, size)) / vm) ** (1.0 / m)
        direction = rng.standard_normal((2, size, m))
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        w = direction * radius[:, :, None]
        gap = np.linalg.norm(w[0] - w[1], axis=1)
        r1, r2 = radius
        admissible = np.maximum(r1, r2) < gap
        weights = np.zeros(size)
        union = _reference_union_volumes(m, r1[admissible], r2[admissible],
                                         gap[admissible])
        weights[admissible] = np.exp(vm * r1[admissible] ** m
                                     + vm * r2[admissible] ** m - union)
        sums += weights.sum()
        sq_sums += (weights * weights).sum()
    mean = sums / samples
    var = max(sq_sums / samples - mean * mean, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)


class TestCapFractions:
    def test_recurrence_matches_incomplete_beta(self):
        h = np.linspace(0.0, 1.0, 2001)
        for m in [*range(1, 61), 100, 200]:
            # I_{1-h^2}((m+1)/2, 1/2) written as the complement of
            # I_{h^2}(1/2, (m+1)/2): the same function, but its argument h^2
            # is exact near h = 0, where rounding 1 - h^2 costs betainc up
            # to 1.4e-12 at m = 200
            minor = 0.5 * special.betaincc(0.5, (m + 1) / 2.0, h * h)
            assert np.abs(_cap_fractions(m, h) - minor).max() < 1e-12, m


class TestBallGeometry:
    def test_low_dimensional_volumes(self):
        assert ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_half_integer_gamma_matches_math_gamma(self):
        for m in range(1, 40):
            assert ball_volume(m) == pytest.approx(
                math.pi ** (m / 2) / math.gamma(m / 2 + 1), rel=1e-13)

    def test_unit_union_1d_is_three(self):
        assert ball_geometry(1).unit_union_volume == pytest.approx(3.0, abs=1e-12)

    def test_unit_union_2d_lens_formula(self):
        expected = 2 * math.pi - (2 * math.pi / 3 - math.sqrt(3) / 2)
        assert ball_geometry(2).unit_union_volume == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 10, 17])
    def test_matches_betainc_union(self, m):
        one = np.array([1.0])
        expected = _reference_union_volumes(m, one, one, one)[0]
        assert ball_geometry(m).unit_union_volume == pytest.approx(expected, rel=1e-12)


class TestPairLimit:
    def test_one_dimension_exact(self):
        assert nn_pair_limit(1) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_two_dimensions_exact(self):
        # I_{3/4}(3/2, 1/2) by the substitution t = sin^2(theta)
        i_34 = (math.pi / 3 - math.sqrt(3) / 4) / (math.pi / 2)
        assert nn_pair_limit(2) == pytest.approx(1.0 / (2.0 - i_34), abs=1e-12)
        assert nn_pair_limit(2) == pytest.approx(0.6215048968874, abs=1e-12)

    def test_is_the_incomplete_beta_formula(self):
        for m in range(1, 51):
            assert nn_pair_limit(m) == 1.0 / (
                2.0 - float(special.betainc((m + 1) / 2, 0.5, 0.75)))

    def test_reference_table_two_decimals(self):
        for m, expected in REFERENCE_PAIR_LIMITS.items():
            assert round(nn_pair_limit(m), 2) == expected

    def test_strictly_decreasing_with_range(self):
        values = [nn_pair_limit(m) for m in range(1, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # upper edge with rounding slack (q(1) is the double nearest 2/3)
        assert all(0.5 < v <= 2.0 / 3.0 + 1e-12 for v in values)

    def test_limit_approached_from_above(self):
        assert 0.5 < nn_pair_limit(200) < 0.51

    def test_matches_ball_geometry_ratio(self):
        for m in range(1, 21):
            geom = ball_geometry(m)
            ratio = geom.unit_ball_volume / geom.unit_union_volume
            assert abs(nn_pair_limit(m) - ratio) < 1e-10

    def test_invalid_m(self):
        with pytest.raises(InvalidInputError):
            nn_pair_limit(0)


class TestTripleLimit:
    def test_one_dimension_matches_exact_value(self):
        est, se = nn_triple_limit_mc(1, samples=2 * 10**5, seed=3)
        assert se < 0.01
        assert abs(est - TRIPLE_LIMIT_1D) < max(4 * se, 1e-3)

    def test_deterministic_given_seed(self):
        a = nn_triple_limit_mc(2, samples=10**5, seed=11)
        b = nn_triple_limit_mc(2, samples=10**5, seed=11)
        assert a == b

    def test_thread_count_does_not_change_result(self):
        a = nn_triple_limit_mc(2, samples=3 * 10**5, seed=5, threads=1)
        b = nn_triple_limit_mc(2, samples=3 * 10**5, seed=5, threads=4)
        assert a == b

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 17])
    @pytest.mark.parametrize("block_size", [None, 2**15])
    def test_matches_explicit_point_reference(self, m, block_size, monkeypatch):
        # 2**15 splits the samples into three full blocks and a partial one
        if block_size is not None:
            monkeypatch.setattr(null_constants, "_MC_BLOCK", block_size)
        samples = 10**5 + 1
        for seed in (1, 2, 20260808):
            est, se = nn_triple_limit_mc(m, samples=samples, seed=seed, threads=1)
            ref_est, ref_se = _reference_triple_limit_mc(
                m, samples, seed, null_constants._MC_BLOCK)
            assert est == pytest.approx(ref_est, rel=1e-12)
            assert se == pytest.approx(ref_se, rel=1e-12)

    def test_scratch_stays_near_the_normal_draw(self):
        m, samples = 50, 10**5
        tracemalloc.start()
        try:
            nn_triple_limit_mc(m, samples=samples, seed=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (samples * m * 8)  # the (samples, m) first direction

    def test_chunked_normal_draws_continue_one_stream(self):
        # the sampler draws its second direction chunk by chunk into one
        # buffer and relies on this matching a single (2, size, m) draw
        whole = substream(9, 0).standard_normal((2, 1000, 3))
        rng = substream(9, 0)
        first = rng.standard_normal((1000, 3))
        buf = np.empty((384, 3))
        chunks = [rng.standard_normal(out=buf[:hi - lo]).copy()
                  for lo, hi in ((0, 384), (384, 768), (768, 1000))]
        np.testing.assert_array_equal(first, whole[0])
        np.testing.assert_array_equal(np.concatenate(chunks), whole[1])

    # nn_triple_limit_mc(m, samples) at DEFAULT_SEED, recorded from the
    # sampler that formed both radii and the gap in absolute units: a full
    # chunk count, a partial last chunk, and a one-row second block
    RECORDED = {
        (1, 10**5): (0.50078, 0.0015811448118971147),
        (1, 10**5 + 12345): (0.5014197338555343, 0.001491740607782767),
        (1, 2**19 + 1): (0.5008287414002582, 0.0006905330174673817),
        (2, 10**5): (0.6339498074605407, 0.001690905719610173),
        (2, 10**5 + 12345): (0.634535486852794, 0.0015983392400639182),
        (2, 2**19 + 1): (0.6330191123059088, 0.0007398795071461904),
        (3, 10**5): (0.710583913429076, 0.001603121442364037),
        (3, 10**5 + 12345): (0.709272581845795, 0.001513010488034148),
        (3, 2**19 + 1): (0.709153976815503, 0.0007012722755599472),
        (7, 10**5): (0.8654211589509575, 0.0011675875173070241),
        (7, 10**5 + 12345): (0.862807077441529, 0.0011091870397907538),
        (7, 2**19 + 1): (0.8623749134154064, 0.0005139945992336268),
        (50, 10**5): (0.9998702166585112, 3.605335800832135e-05),
        (50, 10**5 + 12345): (0.9998221827821762, 3.980380740292962e-05),
        (50, 2**19 + 1): (0.9998666896813956, 1.5956946509458397e-05),
    }

    @pytest.mark.parametrize("m, samples", sorted(RECORDED), ids=str)
    def test_matches_recorded_outputs(self, m, samples):
        est, se = nn_triple_limit_mc(m, samples=samples, seed=null_constants.DEFAULT_SEED)
        ref_est, ref_se = self.RECORDED[m, samples]
        assert est == pytest.approx(ref_est, rel=1e-12)
        # The stderr is compared through the mean of w**2 the sampler sums.
        # At m=50 the variance cancels (mean(w**2) / var is about 7.5e3), so
        # the recorded stderr itself is off by about 4e-12 from exact
        # arithmetic on its own weights; mean(w**2) is not.
        def second_moment(est, se):
            return se * se * (samples - 1) + est * est
        assert second_moment(est, se) == pytest.approx(second_moment(ref_est, ref_se),
                                                       rel=1e-12)

    def test_zero_radius_is_outside_the_region(self):
        # lam = 0, inf and 0/0 at the most favourable cosine, beside a pair
        # that is admitted
        mass = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        cos = np.full(4, -1.0)
        for m in (1, 2, 3, 10):
            log_w = null_constants._log_weights(m, mass, cos)
            assert log_w.shape == (1,)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 50])
    def test_every_admitted_weight_is_at_least_one(self, m):
        rng = np.random.default_rng(m)
        mass = rng.exponential(size=(2, 20_000))
        g = rng.standard_normal((2, 20_000, m))
        cos = (g[0] * g[1]).sum(-1) / np.sqrt((g[0] ** 2).sum(-1) * (g[1] ** 2).sum(-1))
        log_w = null_constants._log_weights(m, mass, cos)
        assert log_w.size > 0
        assert log_w.min() >= -1e-12

    def test_sample_floor_enforced(self):
        with pytest.raises(InvalidInputError):
            nn_triple_limit_mc(2, samples=10**4)

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_consistent_with_ten_times_rerun(self, m):
        est1, se1 = nn_triple_limit_mc(m, samples=2 * 10**5, seed=21)
        est2, se2 = nn_triple_limit_mc(m, samples=2 * 10**6, seed=22)
        assert abs(est1 - est2) < 3 * math.hypot(se1, se2)
        assert est1 < 2.0 and est2 < 2.0


class TestStoredDefaultRows:
    def test_rows_are_the_samplers_default_output(self):
        # bitwise equal where they were generated; rtol absorbs last-bit
        # differences of vectorised exp/pow on other CPUs
        table = null_constants._DEFAULT_TRIPLE_ROWS
        assert sorted(table) == list(range(1, 11))
        for m, (est, se) in table.items():
            assert nn_triple_limit_mc(m) == pytest.approx((est, se), rel=1e-12, abs=0)
            c = null_variance(m)
            assert (c.triple_limit, c.triple_stderr, c.source) == (est, se, "monte_carlo")

    @pytest.fixture
    def sampler_calls(self, monkeypatch):
        calls = []

        def record(m, samples, seed):
            calls.append((m, samples, seed))
            return 0.75, 0.001

        monkeypatch.setattr(null_constants, "nn_triple_limit_mc", record)
        return calls

    @pytest.mark.parametrize("m, kwargs", [
        (2, {"seed": null_constants.DEFAULT_SEED + 1}),
        (2, {"o_samples": 2 * 10**5}),
        (11, {}),
    ], ids=["seed", "o_samples", "m11"])
    def test_other_calls_sample(self, sampler_calls, m, kwargs):
        c = null_variance(m, **kwargs)
        assert (c.triple_limit, c.triple_stderr, c.source) == (0.75, 0.001, "monte_carlo")
        assert sampler_calls == [(m, kwargs.get("o_samples", 10**6),
                                  kwargs.get("seed", null_constants.DEFAULT_SEED))]

    def test_lookup_refuses_what_the_sampler_refuses(self, sampler_calls):
        with pytest.raises(InvalidInputError, match="^o_samples must be >= 100000"):
            null_variance(2, o_samples=5)
        with pytest.raises(InvalidInputError, match="o_samples"):
            null_variance(2, o_samples=1e6)
        with pytest.raises(InvalidInputError, match="seed"):
            null_variance(2, seed=float(null_constants.DEFAULT_SEED))
        assert sampler_calls == []


class TestLargeDimensionRefused:
    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("drew samples for a refused dimension")

        monkeypatch.setattr(null_constants, "substream", fail)

    def test_ball_volume(self):
        assert 0.0 < ball_volume(341) < 1e-200
        for m in (342, 345, 1240, 1241, 1300):
            with pytest.raises(InvalidInputError, match="m must be below 342"):
                ball_volume(m)

    def test_triple_sampler(self):
        with pytest.raises(InvalidInputError, match="m must be below 342"):
            nn_triple_limit_mc(345, samples=10**5)
        with pytest.raises(InvalidInputError, match="m must be below 342"):
            null_variance(342)


class TestNullVariance:
    def test_exact_one_dimensional_value(self):
        c = null_variance(1, source="closed_form")
        assert c.sigma2 == pytest.approx(16.0 / 15.0, abs=1e-12)
        assert c.pair_limit == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert c.triple_limit == 0.5

    @pytest.mark.parametrize("source", null_constants.SOURCES)
    def test_every_source_checks_samples_and_seed(self, source):
        # the table and the closed form ignore both, but a bad value is refused
        with pytest.raises(InvalidInputError, match="^o_samples must be >= 100000"):
            null_variance(1, o_samples=5, seed=-1, source=source)
        with pytest.raises(InvalidInputError, match="^seed must be >= 0"):
            null_variance(1, seed=-1, source=source)

    def test_table_source_reproduces_reference_rows(self):
        c = null_variance(2, source="table")
        assert (c.pair_limit, c.triple_limit) == (0.62, 0.63)
        assert c.sigma2 == pytest.approx(2 / 5 + 0.4 * 0.62 + 0.8 * 0.63, abs=1e-12)
        assert c.sigma2 == pytest.approx(1.152, abs=1e-12)
        assert c.triple_stderr == 0.0

    def test_variance_formula_is_exact_combination(self):
        c = null_variance(3, o_samples=10**5, seed=2)
        assert c.sigma2 == 2 / 5 + (2 / 5) * c.pair_limit + (4 / 5) * c.triple_limit

    def test_sigma2_within_theoretical_bounds(self):
        for m in range(1, 11):
            for c in (null_variance(m, source="table"),
                      null_variance(m, o_samples=10**5, seed=m)):
                assert 0.6 < c.sigma2 < 2.2667

    def test_source_validation(self):
        with pytest.raises(InvalidInputError):
            null_variance(11, source="table")
        with pytest.raises(InvalidInputError):
            null_variance(2, source="closed_form")
        with pytest.raises(InvalidInputError):
            null_variance(2, source="bogus")
        with pytest.raises(InvalidInputError):
            null_variance(0)

    def test_reference_triple_table_shape(self):
        assert sorted(REFERENCE_TRIPLE_LIMITS) == list(range(1, 11))
        assert all(0 < v < 2 for v in REFERENCE_TRIPLE_LIMITS.values())

    def test_csv_export_layout(self, tmp_path):
        rows = [null_variance(m, source="table") for m in (1, 2)]
        out = tmp_path / "constants.csv"
        with open(out, "w") as fh:
            write_constants_csv(rows, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,q_m,o_m,sigma2,o_m_stderr,source"
        assert lines[1].startswith("1,0.67,0.49,")
        assert lines[1].endswith(",table")
        assert len(lines) == 3


class TestAgreementWithEmpiricalCounts:
    def test_pair_and_triple_limits_realized_by_nn_graphs(self):
        # two independent realizations of the same limits: closed form /
        # importance sampling vs direct graph counting on the torus
        est = estimate_constants_empirical(m=1, n=4000, reps=10, seed=17)
        assert abs(est.pair_rate - nn_pair_limit(1)) < 3 * max(est.pair_stderr, 1e-3)
        triple, se = nn_triple_limit_mc(1, samples=2 * 10**5, seed=4)
        assert abs(est.triple_rate - triple) < 3 * math.hypot(est.triple_stderr, se) + 2e-3
