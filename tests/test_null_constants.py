import math

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
    null_variance,
    union_volume,
)
from manifold_xi.null_constants import write_constants_csv


class TestBallGeometry:
    def test_low_dimensional_volumes(self):
        assert ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        assert ball_volume(2, r=3.0) == pytest.approx(9.0 * math.pi, rel=1e-15)

    def test_half_integer_gamma_matches_math_gamma(self):
        for m in range(1, 40):
            assert ball_volume(m) == pytest.approx(
                math.pi ** (m / 2) / math.gamma(m / 2 + 1), rel=1e-13)

    def test_unit_union_1d_is_three(self):
        assert union_volume(1, 1.0, 1.0, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_unit_union_2d_lens_formula(self):
        expected = 2 * math.pi - (2 * math.pi / 3 - math.sqrt(3) / 2)
        assert union_volume(2, 1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_is_sum_of_volumes(self):
        for m in (1, 2, 5):
            expected = ball_volume(m) * (1.3**m + 0.7**m)
            assert union_volume(m, 1.3, 0.7, 2.0) == expected
            assert union_volume(m, 1.3, 0.7, 5.0) == expected

    def test_containment_is_larger_ball(self):
        assert union_volume(2, 2.0, 0.5, 1.0) == pytest.approx(4 * math.pi, rel=1e-12)
        assert union_volume(3, 1.0, 1.0, 0.0) == pytest.approx(ball_volume(3), rel=1e-12)

    def test_union_against_1d_interval_arithmetic(self):
        # intervals (c1-r1, c1+r1) and (c2-r2, c2+r2) with c1=0, c2=dist
        rng = np.random.default_rng(7)
        for _ in range(50):
            r1, r2 = rng.uniform(0.2, 2.0, 2)
            dist = rng.uniform(0.0, 4.0)
            overlap = max(0.0, min(r1, dist + r2) - max(-r1, dist - r2))
            expected = 2 * r1 + 2 * r2 - overlap
            assert union_volume(1, r1, r2, dist) == pytest.approx(expected, abs=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInputError):
            union_volume(0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            union_volume(2, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            union_volume(2, 1.0, 1.0, -0.5)


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

    def test_sample_floor_enforced(self):
        with pytest.raises(InvalidInputError):
            nn_triple_limit_mc(2, samples=10**4)

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_consistent_with_ten_times_rerun(self, m):
        est1, se1 = nn_triple_limit_mc(m, samples=2 * 10**5, seed=21)
        est2, se2 = nn_triple_limit_mc(m, samples=2 * 10**6, seed=22)
        assert abs(est1 - est2) < 3 * math.hypot(se1, se2)
        assert est1 < 2.0 and est2 < 2.0


class TestNullVariance:
    def test_exact_one_dimensional_value(self):
        c = null_variance(1, source="closed_form")
        assert c.sigma2 == pytest.approx(16.0 / 15.0, abs=1e-12)
        assert c.pair_limit == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert c.triple_limit == 0.5

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
