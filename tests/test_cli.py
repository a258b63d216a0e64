import json

import numpy as np
import pytest

from manifold_xi import REFERENCE_PAIR_LIMITS, REFERENCE_TRIPLE_LIMITS
from manifold_xi.cli import cli_dispatch
from manifold_xi.manifold_gen import read_dataset_csv


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
    assert "line 3" in capsys.readouterr().err


def test_test_constant_response_exits_one(tmp_path, capsys):
    path = tmp_path / "const.csv"
    path.write_text("y,x1\n" + "".join(f"2.0,{v}.0\n" for v in range(10)))
    code = cli_dispatch(["test", "--input", path.as_posix(),
                         "--method", "xi_asymptotic", "--dim", "1"])
    assert code == 1
    assert "constant response" in capsys.readouterr().err


def test_test_requires_dim_for_asymptotic(three_points, capsys):
    assert cli_dispatch(["test", "--input", three_points,
                         "--method", "xi_asymptotic"]) == 1
    capsys.readouterr()


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


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["linear"], "transforms":
                                    ["identity"], "m_grid": [1],
                                    "rho_grid": [0.0], "extra_knob": 1}))
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(),
                         "--quiet"]) == 1
    assert "extra_knob" in capsys.readouterr().err


def test_simulate_threads_env_fallback(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["linear"], "transforms":
                                    ["identity"], "m_grid": [1],
                                    "rho_grid": [0.0], "n": 30, "reps": 4,
                                    "methods": ["xi_permutation"], "B": 19}))
    out = tmp_path / "r.csv"
    monkeypatch.setenv("XICOR_THREADS", "2")
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(), "--out",
                         out.as_posix(), "--quiet"]) == 0
    assert out.read_text().count("\n") == 2  # header + one record


def test_simulate_rejects_non_integer_threads_env(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cases": ["linear"], "transforms":
                                    ["identity"], "m_grid": [1],
                                    "rho_grid": [0.0], "n": 30, "reps": 4,
                                    "methods": ["xi_permutation"], "B": 19}))
    monkeypatch.setenv("XICOR_THREADS", "two")
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix(), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "XICOR_THREADS" in err


def test_verify_nng_reports_deviations(capsys):
    assert cli_dispatch(["verify-nng", "--m", "1", "--n", "1000", "--reps", "3",
                         "--geometry", "torus", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "pair rate" in out and "triple rate" in out


TINY_CONFIG = {"cases": ["linear"], "transforms": ["identity"], "m_grid": [1],
               "rho_grid": [0.0], "n": 30, "reps": 2,
               "methods": ["xi_permutation"], "B": 19}


@pytest.mark.parametrize("mistake", [
    {"threads": "two"}, {"threads": 0}, {"reps": 2.5}, {"reps": True},
    {"n": 30.5}, {"B": 19.5}, {"master_seed": -1}, {"master_seed": 1.5},
    {"rho_grid": ["a"]}, {"m_grid": [1.7]}, {"alpha": "0.05"},
    {"cases": "linear"},
], ids=lambda mistake: json.dumps(mistake))
def test_simulate_config_mistake_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                  mistake):
    # a float for an integer or a bool for a count is refused, not truncated
    monkeypatch.delenv("XICOR_THREADS", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, **mistake}))
    assert cli_dispatch(["simulate", "--config", cfg_path.as_posix()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert next(iter(mistake)) in lines[0]  # the message names the key


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
