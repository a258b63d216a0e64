"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(script, workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(os.path.join(BENCH, "run.py"), workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_a_wrong_reference_fails_the_gate():
    with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    pinned = refs["tiny"]["large_inputs"]["5"]
    pinned["xi_tree"] = repr(float(pinned["xi_tree"]) + 1e-12)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "wrong-references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    proc = run_bench(os.path.join(BENCH, "run.py"), "large_inputs", 0, "--tiny",
                     "--references", path)
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "xi_tree" in proc.stderr


def test_without_the_program_it_fails_and_prints_no_result():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(os.path.join(bare, "bench", "run.py"), "desk_reduced", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_time_children_cover():
    sys.path.insert(0, BENCH)
    from tracer import self_times

    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "start": start, "end": end}

    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 6.0),
             span(4, 2, 1.5, 2.0)]
    assert self_times(spans) == {1: 7.0, 2: 1.5, 3: 1.0, 4: 0.5}
