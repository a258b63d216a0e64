import collections
import dataclasses
import json
import logging
import sys

import numpy as np
import pytest

from manifold_xi import REFERENCE_PAIR_LIMITS, REFERENCE_TRIPLE_LIMITS, ScenarioSpec, xi_n
from manifold_xi import cli, null_constants
from manifold_xi.cli import cli_dispatch
from manifold_xi.dep_tests import METHODS
from manifold_xi.manifold_gen import read_dataset_csv, write_dataset_csv


@pytest.fixture
def three_points(tmp_path):
    path = tmp_path / "three_points.csv"
    path.write_text("y,x1\n1.0,1.0\n2.0,2.0\n3.0,3.0\n")
    return path.as_posix()


def test_version_flag():
    assert cli_dispatch(["--version"]) == 0


def test_unknown_flag_is_usage_error(capsys):
    assert cli_dispatch(["constants", "--frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_dispatch(["dance"]) == 2
    capsys.readouterr()


def test_constants_table_source_matches_reference(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli_dispatch(["constants", "--m-max", "10", "--source", "table",
                         "--out", out.as_posix()]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,q_m,o_m,sigma2,o_m_stderr,source"
    assert len(lines) == 11
    for m, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == m
        assert float(fields[1]) == REFERENCE_PAIR_LIMITS[m]
        assert float(fields[2]) == REFERENCE_TRIPLE_LIMITS[m]
        assert fields[5] == "table"


def test_constants_monte_carlo_json(tmp_path):
    out = tmp_path / "c.json"
    assert cli_dispatch(["constants", "--m-max", "1", "--om-samples", "100000",
                         "--seed", "5", "--out", out.as_posix()]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert set(rows[0]) == {"m", "q_m", "o_m", "sigma2", "o_m_stderr", "source"}
    assert rows[0]["source"] == "monte_carlo"
    assert abs(rows[0]["o_m"] - 0.5) < 0.01


def test_default_constants_are_not_sampled(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("sampled a stored null constant")

    monkeypatch.setattr(null_constants, "nn_triple_limit_mc", fail)
    out = tmp_path / "c.json"
    assert cli_dispatch(["constants", "--m-max", "10", "--out", out.as_posix()]) == 0
    rows = json.loads(out.read_text())
    assert [row["m"] for row in rows] == list(range(1, 11))
    assert {row["source"] for row in rows} == {"monte_carlo"}


@pytest.mark.parametrize("m_max", ["342", "1300"])
def test_constants_refuses_too_large_m_max_before_any_row(capsys, monkeypatch, m_max):
    def fail(*args, **kwargs):
        raise AssertionError("computed a row before checking --m-max")

    monkeypatch.setattr(cli, "null_variance", fail)
    assert cli_dispatch(["constants", "--m-max", m_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "m must be below 342" in lines[0]


def test_constants_names_om_samples_floor(capsys):
    assert cli_dispatch(["constants", "--m-max", "2", "--om-samples", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: o_samples must be >= 100000, got 5"]


def test_constants_table_checks_om_samples_and_seed(capsys):
    argv = ["constants", "--m-max", "2", "--source", "table", "--om-samples", "5"]
    assert cli_dispatch(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: o_samples must be >= 100000, got 5"]


@pytest.mark.parametrize("m_max", ["0", "-3"])
def test_constants_rejects_non_positive_m_max(capsys, m_max):
    assert cli_dispatch(["constants", "--m-max", m_max, "--source", "table"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--m-max" in captured.err


def test_xi_prints_hand_example(three_points, capsys):
    assert cli_dispatch(["xi", "--input", three_points]) == 0
    assert capsys.readouterr().out.strip() == "-0.5"


def test_xi_missing_file_is_runtime_error(capsys):
    assert cli_dispatch(["xi", "--input", "/nonexistent/data.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_xi_malformed_csv_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1\n1.0,2.0\nbroken\n")
    assert cli_dispatch(["xi", "--input", path.as_posix()]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path.as_posix()}: line 3: expected 2 fields, got 1"]


def test_xi_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x1\n1.0,1.0\n2.0,2.0\n3.0,3.0\n")
    assert cli_dispatch(["xi", "--input", path.as_posix()]) == 0
    assert capsys.readouterr().out.strip() == "-0.5"


def test_xi_undecodable_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"y,x1\n1.0,2.0\n2.0,\xff3.0\n3.0,1.0\n")
    assert cli_dispatch(["xi", "--input", path.as_posix()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path.as_posix()}: not UTF-8 text"]


def _write_xy(path, x, y):
    with open(path, "w", encoding="utf-8") as fh:
        write_dataset_csv(fh, x, y)
    return path.as_posix()


def test_xi_huge_coordinates_print_their_coefficient(tmp_path, capsys):
    # squared distances near 1e320 overflow unless the cloud is prescaled
    rng = np.random.default_rng(24)
    x, y = rng.random((120, 2)) * 1e160, np.arange(120.0)
    path = _write_xy(tmp_path / "huge.csv", x, y)
    assert cli_dispatch(["xi", "--input", path]) == 0
    assert capsys.readouterr().out == f"{xi_n(x, y).value:.10g}\n"
    assert xi_n(x, y) == xi_n(x / 1e160, y)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
@pytest.mark.parametrize("scaled", ["x", "y"])
def test_extreme_scales_are_numbers_or_one_error_line(tmp_path, capsys, scale, scaled):
    rng = np.random.default_rng(27)
    x = rng.random((40, 2))
    y = x.sum(axis=1) + 0.1 * rng.random(40)
    x, y = (x * scale, y) if scaled == "x" else (x, y * scale)
    path = _write_xy(tmp_path / "scaled.csv", x, y)
    commands = [["xi"]] + [["test", "--method", method, "--dim", "2", "--permutations", "19"]
                           for method in METHODS]
    for command in commands:
        code = cli_dispatch(command + ["--input", path])
        out, err = capsys.readouterr()
        if code == 1:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
            continue
        assert code == 0
        numbers = [float(out)] if command == ["xi"] else [
            json.loads(out)[key] for key in ("statistic", "p")]
        assert np.isfinite(numbers).all()


def test_test_tied_response_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_text("y,x1\n" + "".join(f"{i % 2}.0,{(7 * i) % 10}.5\n" for i in range(10)))
    assert cli_dispatch(["test", "--input", path.as_posix(),
                         "--method", "xi_asymptotic", "--dim", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tied responses")
    assert "xi_permutation" in lines[0]


@pytest.mark.parametrize("kind", ["lattice", "ten_levels"])
def test_test_duplicate_rows_are_one_error_line(tmp_path, capsys, kind):
    rng = np.random.default_rng(36)
    x = rng.integers(0, 6, (100, 2)) if kind == "lattice" else rng.integers(0, 10, (100, 1))
    path = tmp_path / "levels.csv"
    with path.open("w") as fh:
        write_dataset_csv(fh, x.astype(float), rng.random(100))
    argv = ["test", "--input", path.as_posix(), "--method"]
    assert cli_dispatch(argv + ["xi_asymptotic", "--dim", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: duplicate x")
    assert "xi_permutation" in lines[0]
    assert cli_dispatch(argv + ["xi_permutation", "--permutations", "19"]) == 0
    capsys.readouterr()


def test_test_constant_response_exits_one(tmp_path, capsys):
    path = tmp_path / "const.csv"
    path.write_text("y,x1\n" + "".join(f"2.0,{v}.0\n" for v in range(10)))
    code = cli_dispatch(["test", "--input", path.as_posix(),
                         "--method", "xi_asymptotic", "--dim", "1"])
    assert code == 1
    assert "constant response" in capsys.readouterr().err


def test_test_permutation_reports_the_tie_robust_coefficient(tmp_path, capsys):
    # x = 0..7 on a line and y = 0,0,0,0,1,1,1,1: R_i is 4 or 8, L_i is 8 or
    # 4, row i's neighbor is i - 1 (row 0's is 1), the rank sum is 44 and
    # T_n = (8*44 - 4*64 - 4*16) / (4*8*0 + 4*4*4) = 1/2 (the tie-free
    # expression would give 6*44/63 - 17/7 = 1.76)
    path = tmp_path / "tied.csv"
    path.write_text("y,x1\n" + "".join(f"{i // 4},{i}\n" for i in range(8)))
    assert cli_dispatch(["test", "--input", path.as_posix(), "--method",
                         "xi_permutation", "--permutations", "19"]) == 0
    assert json.loads(capsys.readouterr().out)["statistic"] == 0.5


def test_test_requires_dim_for_asymptotic(three_points, capsys):
    assert cli_dispatch(["test", "--input", three_points,
                         "--method", "xi_asymptotic"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--seed", "-1"], ["--permutations", "5"],
                                   ["--seed", "-1", "--permutations", "5"]],
                         ids=["seed", "B", "both"])
def test_test_checks_unused_arguments(three_points, capsys, extra):
    # xi_asymptotic ignores B and seed, but a bad value is still refused
    assert cli_dispatch(["test", "--input", three_points, "--method", "xi_asymptotic",
                         "--dim", "1"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_test_non_finite_predictor_exits_one(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    rows = [f"{i}.0,{i}.0" for i in range(10)]
    rows[4] = "4.0,nan"
    path.write_text("y,x1\n" + "\n".join(rows) + "\n")
    assert cli_dispatch(["test", "--input", path.as_posix(), "--method",
                         "dcor_permutation", "--permutations", "39"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def test_test_permutation_json_record(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "d.csv"
    lines = ["y,x1,x2"]
    for _ in range(40):
        x1, x2 = rng.random(2)
        lines.append(f"{x1 + x2},{x1},{x2}")
    path.write_text("\n".join(lines) + "\n")
    assert cli_dispatch(["test", "--input", path.as_posix(), "--method",
                         "xi_permutation", "--permutations", "99",
                         "--seed", "3"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["method"] == "xi_permutation"
    assert rec["B"] == 99 and rec["z"] is None
    assert 0.0 < rec["p"] <= 1.0
    assert rec["reject"] == (rec["p"] <= rec["alpha"])


def test_gen_writes_dataset_and_sidecar(tmp_path):
    out = tmp_path / "wave.csv"
    assert cli_dispatch(["gen", "--case", "cosine", "--transform",
                         "manifold_embed", "--m", "2", "--rho", "0.15",
                         "--n", "50", "--seed", "4", "--out", out.as_posix()]) == 0
    with open(out) as fh:
        x, y = read_dataset_csv(fh)
    assert x.shape == (50, 10) and y.shape == (50,)
    meta = json.loads((tmp_path / "wave.csv.meta.json").read_text())
    assert meta["case"] == "cosine" and meta["n"] == 50


@pytest.mark.parametrize("transform", ["linear_embed", "identity"])
def test_gen_sidecar_keys_are_the_spec_fields(tmp_path, transform):
    out = tmp_path / "g.csv"
    assert cli_dispatch(["gen", "--case", "gaussian", "--transform", transform,
                         "--m", "2", "--rho", "0.3", "--n", "50", "--seed", "4",
                         "--out", out.as_posix()]) == 0
    text = (tmp_path / "g.csv.meta.json").read_text()
    meta = json.loads(text)
    keys = [f.name for f in dataclasses.fields(ScenarioSpec)]
    assert list(meta) == keys + ["r_matrix_hash"] * (transform == "linear_embed")
    assert text == json.dumps(meta, indent=2) + "\n"


def test_gen_then_xi_round_trip(tmp_path, capsys):
    out = tmp_path / "line.csv"
    assert cli_dispatch(["gen", "--case", "linear", "--transform", "identity",
                         "--m", "1", "--rho", "0.9", "--n", "200", "--seed",
                         "5", "--out", out.as_posix()]) == 0
    assert cli_dispatch(["xi", "--input", out.as_posix()]) == 0
    value = float(capsys.readouterr().out)
    assert value > 0.3  # strong dependence

    from manifold_xi import ScenarioSpec, generate, xi_n
    data = generate(ScenarioSpec("linear", "identity", m=1, rho=0.9, n=200, seed=5))
    assert value == pytest.approx(xi_n(data.x, data.y).value, abs=1e-9)


def test_simulate_end_to_end(tmp_path, capsys):
    cfg = {"cases": ["linear"], "transforms": ["identity"], "m_grid": [1],
           "rho_grid": [0.0, 0.8], "n": 40, "reps": 10,
           "methods": ["xi_permutation"], "B": 39, "master_seed": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(), "--out",
                         out1.as_posix(), "--quiet"]) == 0
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(), "--out",
                         out2.as_posix(), "--threads", "3", "--quiet"]) == 0
    capsys.readouterr()

    def strip_elapsed(text):
        return ["," .join(line.split(",")[:-1]) for line in text.strip().splitlines()]

    assert strip_elapsed(out1.read_text()) == strip_elapsed(out2.read_text())
    header = out1.read_text().splitlines()[0]
    assert header == ("case,transform,m,rho,method,n,reps,rejection_rate,"
                      "mc_stderr,r_matrix_hash,elapsed_ms")


@pytest.mark.parametrize("quiet", [False, True])
def test_simulate_reports_each_skipped_cell_once(tmp_path, capsys, quiet):
    # m * rho^2 = 1.25 makes the gaussian rho=0.5 cell infeasible
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["gaussian"], "transforms":
                                    ["identity"], "m_grid": [5],
                                    "rho_grid": [0.0, 0.5], "n": 20, "reps": 2,
                                    "methods": ["xi_permutation", "dcor_permutation"],
                                    "B": 19}))
    argv = ["simulate", "--config", cfg_path.as_posix(),
            "--out", (tmp_path / "r.csv").as_posix()]
    assert cli_dispatch(argv + ["--quiet"] * quiet) == 0
    err = capsys.readouterr().err.splitlines()
    skipped = [line for line in err if "infeasible" in line]
    assert len(skipped) == 2
    assert {line.split(":")[0].split()[-1] for line in skipped} == {
        "xi_permutation", "dcor_permutation"}
    assert len(err) == (2 if quiet else 4)  # plus one progress line per rate


@pytest.fixture
def skipping_simulate(tmp_path):
    """``simulate`` argv on the config above: one computed and one skipped cell."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["gaussian"], "transforms":
                                    ["identity"], "m_grid": [5],
                                    "rho_grid": [0.0, 0.5], "n": 20, "reps": 2,
                                    "methods": ["xi_permutation", "dcor_permutation"],
                                    "B": 19}))
    return ["simulate", "--config", cfg_path.as_posix(),
            "--out", (tmp_path / "r.csv").as_posix()]


@pytest.mark.parametrize("quiet", [False, True])
def test_simulate_stderr_lines_are_pinned(skipping_simulate, capsys, quiet):
    # the full text of every line, in any order: progress per computed
    # (cell, method), which --quiet hides, and one line per skipped one
    assert cli_dispatch(skipping_simulate + ["--quiet"] * quiet) == 0
    skipped = [f"skipped gaussian/identity m=5 rho=0.5 {method}: gaussian "
               "correlation infeasible: m*rho^2=1.25 >= 1"
               for method in ("xi_permutation", "dcor_permutation")]
    progress = [f"gaussian/identity m=5 rho=0 {method}: rate=0.0000"
                for method in ("xi_permutation", "dcor_permutation")]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert collections.Counter(captured.err.splitlines()) == collections.Counter(
        skipped + progress * (not quiet))


def test_each_call_owns_its_stderr_handler(skipping_simulate, tmp_path, capsys):
    # every line once per call, even with a root handler on stderr, and the
    # package logger left as it was found after a run, a --quiet run and an error
    logger, root = logging.getLogger("manifold_xi"), logging.getLogger()
    extra, root_handler = logging.NullHandler(), logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(extra)
    logger.setLevel(logging.ERROR)
    root.addHandler(root_handler)
    state = (list(logger.handlers), logger.level, logger.propagate)
    argv = skipping_simulate
    try:
        for args, code, count in [(argv, 0, 4), (argv, 0, 4), (argv + ["--quiet"], 0, 2),
                                  (["xi", "--input", (tmp_path / "no.csv").as_posix()], 1, 1)]:
            assert cli_dispatch(args) == code
            err = capsys.readouterr().err.splitlines()
            assert len(err) == len(set(err)) == count
            assert (list(logger.handlers), logger.level, logger.propagate) == state
        assert err[0].startswith("error: ")
    finally:
        root.removeHandler(root_handler)
        logger.removeHandler(extra)
        logger.setLevel(level)


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["linear"], "transforms":
                                    ["identity"], "m_grid": [1],
                                    "rho_grid": [0.0], "extra_knob": 1}))
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(),
                         "--quiet"]) == 1
    assert "extra_knob" in capsys.readouterr().err


def test_simulate_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # the worker count comes from --threads or the config, never the environment
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["linear"], "transforms":
                                    ["identity"], "m_grid": [1],
                                    "rho_grid": [0.0, 0.5], "n": 30, "reps": 4,
                                    "methods": ["xi_permutation"], "B": 19}))
    outs = [tmp_path / "plain.csv", tmp_path / "env.csv"]
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(), "--out",
                         outs[0].as_posix(), "--quiet"]) == 0
    monkeypatch.setenv("XICOR_THREADS", "two")
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(), "--out",
                         outs[1].as_posix(), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    plain, env = ([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
                  for out in outs)
    assert plain == env and len(plain) == 3  # header + two records


def test_simulate_refuses_an_undecodable_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"cases": ["lin\xffear"]}')
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg_path.as_posix()}:")


def test_simulate_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    cfg = {"cases": ["linear"], "transforms": ["identity"], "m_grid": [1],
           "rho_grid": [0.0], "n": 20, "reps": 2, "methods": ["xi_permutation"],
           "B": 19}
    outs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg_path.write_bytes(prefix + json.dumps(cfg).encode())
        assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(),
                             "--out", out.as_posix(), "--quiet"]) == 0
        outs.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    capsys.readouterr()
    assert outs[0] == outs[1] and len(outs[0]) == 2


def test_verify_nng_reports_deviations(capsys):
    assert cli_dispatch(["verify-nng", "--m", "1", "--n", "1000", "--reps", "3",
                         "--geometry", "torus", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "pair rate" in out and "triple rate" in out


def test_verify_nng_refuses_too_large_m_before_simulating(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before checking --m")

    monkeypatch.setattr(cli, "estimate_constants_empirical", fail)
    assert cli_dispatch(["verify-nng", "--m", "342", "--n", "2000", "--reps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "m must be below 342" in lines[0]


TINY_CONFIG = {"cases": ["linear"], "transforms": ["identity"], "m_grid": [1],
               "rho_grid": [0.0], "n": 30, "reps": 2,
               "methods": ["xi_permutation"], "B": 19}


@pytest.mark.parametrize("mistake", [
    {"threads": "two"}, {"threads": 0}, {"reps": 2.5}, {"reps": True},
    {"n": 30.5}, {"B": 19.5}, {"master_seed": -1}, {"master_seed": 1.5},
    {"rho_grid": ["a"]}, {"m_grid": [1.7]}, {"alpha": "0.05"},
    {"cases": "linear"}, {"rho_grid": [float("inf")]},
    {"methods": ["xi_asymptotic", "xi_asymptotic"]}, {"cases": ["linear", "linear"]},
    {"m_grid": [1, 1]},
], ids=lambda mistake: json.dumps(mistake))
def test_simulate_config_mistake_is_one_error_line(tmp_path, capsys, mistake):
    # a float for an integer or a bool for a count is refused, not truncated
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, **mistake}))
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert next(iter(mistake)) in lines[0]  # the message names the key


def test_simulate_refuses_an_integer_rho_beyond_float(tmp_path, capsys):
    # a 401-digit JSON integer is finite as an int but has no float value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, "rho_grid": [10**400]}))
    out = tmp_path / "out.csv"
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(),
                         "--out", out.as_posix()]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rho_grid entry must be finite")
    assert not out.exists()


@pytest.mark.parametrize("rho", ["inf", "-inf", "nan"])
def test_gen_refuses_non_finite_rho(tmp_path, capsys, rho):
    out = tmp_path / "g.csv"
    assert cli_dispatch(["gen", "--case", "linear", "--m", "1", f"--rho={rho}",
                         "--n", "5", "--out", out.as_posix()]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: rho must be finite, got {rho}"]


@pytest.mark.parametrize("argv", [
    ["test", "--method", "xi_permutation"],
    ["gen", "--case", "linear", "--m", "1", "--rho", "0.1", "--n", "20"],
    ["verify-nng", "--m", "1", "--n", "200", "--reps", "2"],
    ["constants", "--m-max", "1", "--om-samples", "100000"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_an_error_line(tmp_path, capsys, argv):
    data = tmp_path / "d.csv"
    data.write_text("y,x1\n" + "".join(f"{(7 * i) % 10}.0,{i}.0\n" for i in range(10)))
    out = tmp_path / "out.csv"
    extra = {"test": ["--input", data.as_posix()], "gen": ["--out", out.as_posix()]}
    assert cli_dispatch(argv + extra.get(argv[0], []) + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: seed must be >= 0")


@pytest.mark.parametrize("argv", [["--dim", "-4"], ["--dim", "0"]], ids=["negative", "zero"])
def test_test_refuses_a_bad_dim_the_method_ignores(tmp_path, capsys, argv):
    data = tmp_path / "d.csv"
    data.write_text("y,x1\n" + "".join(f"{(7 * i) % 10}.0,{i}.0\n" for i in range(10)))
    assert cli_dispatch(["test", "--input", data.as_posix(), "--method", "xi_permutation"]
                        + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: m must be >= 1, got {argv[1]}"]
