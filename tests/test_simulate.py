import io
import json
import math

import numpy as np
import pytest

from manifold_xi import (
    DatasetFormatError,
    ExperimentConfig,
    InvalidInputError,
    ScenarioSpec,
    estimate_constants_empirical,
    load_config,
    nn_pair_limit,
    nn_triple_limit_mc,
    records_to_csv,
    run_experiment,
    xi_test_asymptotic,
)
from manifold_xi import dep_tests, null_constants, simulate
from manifold_xi.errors import check_choice, check_int, check_real
from manifold_xi.manifold_gen import linear_embedding_matrix, matrix_hash
from manifold_xi.rngs import parallel_map, substream, worker_count
from manifold_xi.simulate import CSV_HEADER, config_from_dict


def tiny_config(**overrides):
    base = dict(cases=("linear",), transforms=("identity",), m_grid=(1,),
                rho_grid=(0.0,), n=30, reps=6, methods=("xi_permutation",),
                B=29, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_elapsed(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.strip().splitlines())


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(DatasetFormatError, match="plot"):
            config_from_dict({"cases": ["linear"], "transforms": ["identity"],
                              "m_grid": [1], "rho_grid": [0.0], "plot": True})

    def test_auto_threads_accepted(self):
        cfg = config_from_dict({"cases": ["linear"], "transforms": ["identity"],
                                "m_grid": [1], "rho_grid": [0.0],
                                "threads": "auto"})
        assert cfg.threads is None

    @pytest.mark.parametrize("threads", [0, -3, "two", 1.5, True],
                             ids=["zero", "negative", "text", "float", "bool"])
    def test_bad_threads_refused_when_built(self, threads):
        with pytest.raises(InvalidInputError) as built:
            tiny_config(threads=threads)
        with pytest.raises(InvalidInputError) as counted:
            worker_count(threads)
        assert str(built.value) == str(counted.value)

    @pytest.mark.parametrize("threads, expected", [("auto", None), (None, None), (3, 3)])
    def test_threads_read_from_a_file(self, tmp_path, threads, expected):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cases": ["linear"], "transforms": ["identity"],
                                    "m_grid": [1], "rho_grid": [0.0],
                                    "threads": threads}))
        assert load_config(path.as_posix()).threads == expected

    def test_zero_threads_refused_in_a_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cases": ["linear"], "transforms": ["identity"],
                                    "m_grid": [1], "rho_grid": [0.0], "threads": 0}))
        with pytest.raises(InvalidInputError, match="threads must be >= 1"):
            load_config(path.as_posix())

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            tiny_config(methods=("anova",))
        with pytest.raises(InvalidInputError):
            tiny_config(cases=())
        with pytest.raises(InvalidInputError):
            tiny_config(reps=0)
        with pytest.raises(InvalidInputError):
            tiny_config(rho_grid=(-0.1,))
        with pytest.raises(InvalidInputError):
            tiny_config(alpha=0.0)

    def test_first_bad_grid_in_field_order_is_reported(self):
        # each grid is checked whole (a tuple, its entries, no repeats) in turn
        with pytest.raises(InvalidInputError, match="^transform must be one of"):
            tiny_config(transforms=("warp",), m_grid=(), methods=("anova",))
        with pytest.raises(InvalidInputError, match="^cases must list each entry once"):
            tiny_config(cases=("linear", "linear"), rho_grid=(-1.0,))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "cases": ["linear", "cosine"], "transforms": ["manifold_embed"],
            "m_grid": [1, 2], "rho_grid": [0.0, 0.2], "n": 50, "reps": 3,
            "methods": ["xi_permutation"], "B": 19, "master_seed": 1,
        }))
        cfg = load_config(path.as_posix())
        assert cfg.cases == ("linear", "cosine")
        assert cfg.rho_grid == (0.0, 0.2)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(DatasetFormatError):
            load_config(path.as_posix())


class TestRunExperiment:
    def test_record_layout_and_counts(self):
        cfg = tiny_config(reps=5, rho_grid=(0.0, 0.3),
                          methods=("xi_permutation", "dcor_permutation"))
        records = run_experiment(cfg)
        assert len(records) == 2 * 2  # 2 rho cells x 2 methods
        for rec in records:
            count = rec.rejection_rate * rec.reps
            assert count == pytest.approx(round(count), abs=1e-9)
            expected_se = math.sqrt(rec.rejection_rate * (1 - rec.rejection_rate)
                                    / rec.reps)
            assert rec.mc_stderr == pytest.approx(expected_se, abs=1e-12)
            assert rec.skip_reason is None

    def test_single_replicate_rate_is_binary(self):
        records = run_experiment(tiny_config(reps=1))
        assert records[0].rejection_rate in (0.0, 1.0)
        assert records[0].mc_stderr == 0.0

    def test_deterministic_and_thread_count_independent(self):
        cfg1 = tiny_config(threads=1, rho_grid=(0.0, 0.5),
                           cases=("linear", "wshape"))
        cfg4 = tiny_config(threads=4, rho_grid=(0.0, 0.5),
                           cases=("linear", "wshape"))
        a = run_experiment(cfg1)
        b = run_experiment(cfg4)
        assert [(r.case, r.rho, r.method, r.rejection_rate) for r in a] == \
               [(r.case, r.rho, r.method, r.rejection_rate) for r in b]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_stopping_tests_give_the_full_b_csv(self, monkeypatch, alpha, threads):
        # The harness stops each permutation test once it cannot reject; its
        # CSV must be the one built from public tests that draw all B.
        cfg = tiny_config(cases=("linear", "quadratic"), rho_grid=(0.0, 0.6),
                          methods=("xi_asymptotic", "xi_permutation", "dcor_permutation"),
                          n=30, reps=5, B=39, alpha=alpha, threads=threads)
        stopping, full = io.StringIO(), io.StringIO()
        records_to_csv(run_experiment(cfg), stopping)
        asked = []

        def full_b(*args, _stop_at_decision, **kwargs):
            asked.append(_stop_at_decision)
            return dep_tests.run_test(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_test", full_b)
        records_to_csv(run_experiment(cfg), full)
        assert asked and all(asked)
        assert strip_elapsed(stopping.getvalue()) == strip_elapsed(full.getvalue())

    def test_linear_embed_records_carry_matrix_hash(self):
        cfg = tiny_config(transforms=("linear_embed",), m_grid=(2,))
        records = run_experiment(cfg)
        expected = matrix_hash(linear_embedding_matrix(2, cfg.master_seed))
        assert all(rec.r_matrix_hash == expected for rec in records)

    def test_infeasible_gaussian_cell_skipped_not_fatal(self):
        cfg = tiny_config(cases=("gaussian",), m_grid=(30,), rho_grid=(0.0, 0.2))
        records = run_experiment(cfg)
        skipped = [r for r in records if r.skip_reason]
        ok = [r for r in records if not r.skip_reason]
        assert len(skipped) == 1 and len(ok) == 1  # only m*rho^2 >= 1 skipped
        assert math.isnan(skipped[0].rejection_rate)
        assert "infeasible" in skipped[0].skip_reason
        # m * rho^2 exactly 1 is skipped too, for the reason the spec refuses it
        records = run_experiment(tiny_config(cases=("gaussian",), m_grid=(4,), rho_grid=(0.5,)))
        with pytest.raises(InvalidInputError) as refused:
            ScenarioSpec("gaussian", "identity", m=4, rho=0.5, n=30)
        assert [r.skip_reason for r in records] == [str(refused.value)]

    def test_power_increases_with_dependence(self):
        cfg = tiny_config(cases=("linear",), transforms=("identity",),
                          rho_grid=(0.0, 0.9), n=60, reps=40, B=39)
        records = run_experiment(cfg)
        by_rho = {r.rho: r.rejection_rate for r in records}
        assert by_rho[0.9] > by_rho[0.0] + 0.3

    def test_default_constants_come_from_the_stored_rows(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled a stored null constant")

        monkeypatch.setattr(null_constants, "nn_triple_limit_mc", fail)
        null_constants.default_null_constants.cache_clear()
        cfg = tiny_config(m_grid=(1, 3, 10), methods=("xi_asymptotic",))
        assert [r.m for r in run_experiment(cfg)] == [1, 3, 10]

    def test_bad_threads_refused_before_the_constants(self, monkeypatch):
        # the cold null constants take seconds; a bad threads value must not pay them
        warmed = []
        monkeypatch.setattr(simulate, "default_null_constants", warmed.append)
        with pytest.raises(InvalidInputError, match="threads"):
            run_experiment(tiny_config(m_grid=(4, 6), methods=("xi_asymptotic",),
                                       threads="two"))
        assert warmed == []

    def test_output_sorted_deterministically(self):
        cfg = tiny_config(cases=("wshape", "linear"), rho_grid=(0.2, 0.0))
        keys = [(r.case, r.transform, r.m, r.rho, r.method)
                for r in run_experiment(cfg)]
        assert keys == sorted(keys)


class TestCsvOutput:
    def test_schema_and_determinism_modulo_elapsed(self):
        cfg = tiny_config(rho_grid=(0.0, 0.4))
        buf1, buf2 = io.StringIO(), io.StringIO()
        records_to_csv(run_experiment(cfg), buf1)
        records_to_csv(run_experiment(cfg), buf2)
        assert buf1.getvalue().splitlines()[0] == CSV_HEADER
        assert strip_elapsed(buf1.getvalue()) == strip_elapsed(buf2.getvalue())

    def test_six_significant_digit_floats(self):
        records = run_experiment(tiny_config(reps=3, rho_grid=(1.0 / 3.0,)))
        buf = io.StringIO()
        records_to_csv(records, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert row[3] == "0.333333"


class TestArgumentTypes:
    """Each rule checks the type as well as the range."""

    @pytest.mark.parametrize("check, value, minimum", [
        (check_int, 2.0, 1), (check_int, True, 0), (check_int, "3", 1),
        (check_int, 0, 1), (check_real, False, 0.0), (check_real, "0.1", 0.0),
        (check_real, math.nan, 0.0), (check_real, -0.5, 0.0),
        (check_real, math.inf, 0.0), (check_real, -math.inf, 0.0),
        pytest.param(check_real, 10**400, 0.0, id="check_real-int-beyond-float"),
    ])
    def test_checkers_refuse(self, check, value, minimum):
        with pytest.raises(InvalidInputError, match="^x must be"):
            check("x", value, minimum)

    def test_checkers_pass_values_through(self):
        assert check_int("x", np.int64(3), 1) == 3
        assert check_real("x", 2, 0.0) == 2
        assert check_real("x", np.float32(0.5), 0.0) == 0.5
        assert check_choice("x", "b", ("a", "b")) == "b"
        for value in ("c", ["a"], None):
            with pytest.raises(InvalidInputError, match="^x must be one of"):
                check_choice("x", value, ("a", "b"))

    @pytest.mark.parametrize("call", [
        lambda: nn_triple_limit_mc(3, samples=1e6),
        lambda: estimate_constants_empirical(2, 200.0, 3),
        lambda: xi_test_asymptotic(np.arange(10.0), np.arange(10.0), m=2.5),
        lambda: nn_pair_limit(2.5),
        lambda: ScenarioSpec("linear", "identity", m=True, rho=0.1, n=10),
        lambda: substream(-1),
        lambda: substream((1.5, 0)),
        lambda: parallel_map(abs, [1, 2], threads=0),
    ], ids=["samples", "n", "m", "pair_m", "spec_m", "seed", "tuple_seed", "threads"])
    def test_api_refuses_wrong_types(self, call):
        with pytest.raises(InvalidInputError):
            call()

    @pytest.mark.parametrize("override", [
        dict(m_grid=(1.7,)), dict(reps=True), dict(cases="linear"),
        dict(cases=["linear"]), dict(rho_grid=(math.nan,)), dict(rho_grid=(math.inf,)),
        dict(master_seed=-1),
        dict(xi_tail="left"), dict(B=19.0),
        # a repeated method counted its rejections twice (a rate of 2.0
        # crashed mc_stderr); a repeated grid entry wrote one key twice
        dict(methods=("xi_asymptotic", "xi_asymptotic")),
        dict(cases=("linear", "linear")), dict(transforms=("identity", "identity")),
        dict(m_grid=(1, 2, 1)), dict(rho_grid=(0, 0.0)),
    ], ids=lambda o: repr(o))
    def test_config_refuses_without_converting(self, override):
        with pytest.raises(InvalidInputError, match=next(iter(override))):
            tiny_config(**override)

    def test_config_keeps_values_as_given(self):
        cfg = tiny_config(rho_grid=(0, 0.5))
        assert cfg.rho_grid == (0, 0.5) and isinstance(cfg.rho_grid[0], int)
