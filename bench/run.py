#!/usr/bin/env python3
"""Benchmark of manifold_xi: three closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload desk_reduced --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a run in which every public library function records
a span (see ``tracer.py``).  Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, a result
file with an environment block lands in ``bench/out/``, and the exit code
is 0 only when every checked output matched its reference.

``python3 bench/run.py --pin`` re-pins ``bench/references.json`` from the
current source; do that only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

# name -> (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# name -> (unit, better, the end-to-end metric and workload it should move).
PER_LAYER = {
    "manifold_gen.generate.self_s": ("s", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "manifold_gen.read_dataset_csv.self_s": ("s", "lower", "wall_s (cli_xi_s) on large_inputs"),
    "nn_graph.build_nn_graph.calls": ("count", "lower", "wall_s on desk_reduced"),
    "nn_graph.build_nn_graph.rows": ("count", "lower", "wall_s on large_inputs"),
    "nn_graph.build_nn_graph.self_s": (
        "s", "lower", "wall_s on desk_reduced; wall_s (xi_tree_s, xi_highd_s, xi_dup_s, "
        "xi_perm_s, cli_xi_s) and peak_rss_mb on large_inputs"),
    "nn_graph.estimate_constants_empirical.self_s": (
        "s", "lower", "wall_s (verify_nng_s) on constants_cold"),
    "rank_xi.compute_ranks.self_s": ("s", "lower", "wall_s on desk_reduced and large_inputs"),
    "rank_xi.xi_n.self_s": ("s", "lower", "wall_s on desk_reduced and large_inputs (xi_tree_s)"),
    "dep_tests.xi_test_asymptotic.self_s": ("s", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "dep_tests.dcor_test_permutation.self_s": (
        "s", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "dep_tests.xi_test_permutation.self_s": ("s", "lower", "wall_s (xi_perm_s) on large_inputs"),
    "dep_tests.permutations": ("count", "lower", "wall_s on desk_reduced and large_inputs"),
    "dep_tests.dcor_bytes_per_perm": ("B", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "null_constants.nn_triple_limit_mc.self_s": (
        "s", "lower", "wall_s (constants_table_s) on constants_cold; setup_s on desk_reduced"),
    "null_constants.nn_pair_limit.self_s": (
        "s", "lower", "wall_s (constants_table_s) on constants_cold; setup_s on desk_reduced"),
    "null_constants.mc_samples": (
        "count", "lower", "wall_s on constants_cold; setup_s on desk_reduced"),
    "null_constants.default_null_constants.hit_ratio": (
        "ratio", "higher", "wall_s (ms_per_rep) on desk_reduced"),
    "simulate.run_experiment.self_s": ("s", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "cli.cli_dispatch.self_s": ("s", "lower", "wall_s (cli_xi_s) on large_inputs"),
    "rngs.substream.calls": ("count", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "rngs.substream.self_s": ("s", "lower", "wall_s (ms_per_rep) on desk_reduced"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pass wall time"),
}

SELF_TIMED = [name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (pinned separately)")
    parser.add_argument("--references", default=REFERENCES)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin every reference from the current source")
    args = parser.parse_args(argv)
    if not args.pin and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    return args


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    def git(*cmd):
        return subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def environment(args, variant):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git": git_state(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "size": "tiny" if args.tiny else "full",
        "seconds": args.seconds,
        "trace": args.trace,
    }


def time_import():
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import manifold_xi"], env=env, check=True,
                   timeout=120)
    return time.perf_counter() - start


def timed_phase(workload, gate, seconds, tracer):
    """Closed loop of passes until ``seconds`` have elapsed.

    With a tracer, passes alternate traced and untraced (traced first, at
    least one of each), so the run also measures the tracing overhead.
    """
    from tracer import install
    from workloads import Timer

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        timer = Timer(tracer if traced else None)
        uninstall = install(tracer) if traced else None
        try:
            if traced:
                tracer.phase = f"pass{len(passes)}"
            with tracer.span("bench.pass") if traced else contextlib.nullcontext():
                # A traced run calls the CLI in-process in every pass, so
                # traced and untraced passes do the same work.
                workload.run_pass(gate, timer, cli_in_process=tracer is not None)
        finally:
            if uninstall is not None:
                uninstall()
        passes.append({"traced": traced, "wall_s": sum(timer.calls.values()),
                       "calls": timer.calls})
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            return passes


def in_pass(span):
    """Whether a span belongs to a timed pass (not to set-up or the canary)."""
    return span["phase"].startswith("pass")


def call_medians(passes):
    labels = {label for p in passes for label in p["calls"]}
    return {label: statistics.median(p["calls"][label] for p in passes if label in p["calls"])
            for label in sorted(labels)}


def layer_metrics(spans, passes, hit_ratio):
    """Per-layer metrics: the one-off set-up and canary plus one mean traced pass."""
    from tracer import self_times

    selfs = self_times(spans)
    n_traced = sum(p["traced"] for p in passes)

    def total(name, value):
        once = sum(value(s) for s in spans if s["name"] == name and not in_pass(s))
        timed = sum(value(s) for s in spans if s["name"] == name and in_pass(s))
        return once + timed / n_traced

    one = lambda s: 1  # noqa: E731
    metrics = {f"{name}.self_s": total(name, lambda s: selfs[s["id"]]) for name in SELF_TIMED}
    metrics["nn_graph.build_nn_graph.calls"] = total("nn_graph.build_nn_graph", one)
    metrics["nn_graph.build_nn_graph.rows"] = total(
        "nn_graph.build_nn_graph", lambda s: s["attrs"].get("rows", 0))
    metrics["rngs.substream.calls"] = total("rngs.substream", one)
    metrics["dep_tests.permutations"] = sum(
        total(name, lambda s: s["attrs"].get("B", 0))
        for name in ("dep_tests.xi_test_permutation", "dep_tests.dcor_test_permutation"))
    # Computed, not measured: per permutation the dcor kernel gathers the
    # n x n matrix (read + write), multiplies it with the fixed one (two
    # reads, one write) and averages the product (one read), 8 bytes each.
    dcor_n = max((s["attrs"].get("n", 0) for s in spans
                  if s["name"] == "dep_tests.dcor_test_permutation"), default=0)
    metrics["dep_tests.dcor_bytes_per_perm"] = 6 * 8 * dcor_n * dcor_n
    metrics["null_constants.mc_samples"] = total(
        "null_constants.nn_triple_limit_mc", lambda s: s["attrs"].get("samples", 0))
    metrics["null_constants.default_null_constants.hit_ratio"] = hit_ratio
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, selfs


def check_traced_graphs(spans, workload, gate):
    """Check the NN index of every graph a traced call built against its pin."""
    datasets = workload.DATASET
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        if span["name"] != "nn_graph.build_nn_graph" or not in_pass(span):
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != "bench.call":
            parent = by_id.get(parent["parent"])
        if parent is not None and parent["attrs"]["label"] in datasets:
            dataset = datasets[parent["attrs"]["label"]]
            gate.check(f"nn_{dataset}", span["attrs"]["nn_sha"])


def trace_document(spans, selfs, passes):
    """Spans with self times, plus per-name totals over the traced passes."""
    traced_wall = sum(p["wall_s"] for p in passes if p["traced"])
    by_name = {}
    for span in spans:
        entry = by_name.setdefault("passes" if in_pass(span) else "once", {})
        row = entry.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[span["id"]]
    for row in by_name.get("passes", {}).values():
        row["self_share_of_traced_wall"] = row["self_s"] / traced_wall if traced_wall else None
    return {"spans": [dict(s, self_s=selfs[s["id"]]) for s in spans], "by_name": by_name}


def pin():
    """Pin every reference, for every workload, size and variant."""
    from workloads import SIZES, VARIANTS, WORKLOADS, Pinner, Timer, canary

    data_dir = os.path.join(OUT_DIR, "data")
    os.makedirs(data_dir, exist_ok=True)
    pinner = Pinner()
    canary(pinner, data_dir)
    refs = {"canary": pinner.values}
    for size_name, size in SIZES.items():
        refs[size_name] = {}
        for name, cls in WORKLOADS.items():
            refs[size_name][name] = {}
            for variant in range(VARIANTS):
                pinner = Pinner()
                workload = cls(size, variant, ROOT, data_dir)
                workload.run_pass(pinner, Timer(), cli_in_process=False)
                workload.final_checks(pinner)
                refs[size_name][name][str(variant)] = pinner.values
                print(f"pinned {size_name} {name} variant {variant}", file=sys.stderr)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(args):
    from tracer import Tracer, install
    from workloads import DEFAULT_NULL_CONSTANTS, SIZES, VARIANTS, WORKLOADS, Gate, canary

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size_name = "tiny" if args.tiny else "full"
    size = SIZES[size_name]
    variant = args.seed % VARIANTS
    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)
    gate = Gate(dict(refs["canary"], **refs[size_name][args.workload][str(variant)]))
    data_dir = os.path.join(OUT_DIR, "data")
    os.makedirs(data_dir, exist_ok=True)

    workload = WORKLOADS[args.workload](size, variant, ROOT, data_dir)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        # Import and warm-up alternate, so both medians span the same stretch
        # of the machine's (drifting) speed.
        imports, warms = [], []
        for i in range(size.setup_repeats):
            imports.append(time_import())
            if i < size.warm_repeats:
                start = time.perf_counter()
                workload.warm()
                warms.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(warms)
        canary(gate, data_dir)
    else:
        uninstall = install(tracer)
        try:
            with tracer.span("bench.setup"):
                workload.warm()
            tracer.phase = "canary"
            with tracer.span("bench.canary"):
                canary(gate, data_dir)
        finally:
            uninstall()

    cache_before = DEFAULT_NULL_CONSTANTS.cache_info()
    passes = timed_phase(workload, gate, args.seconds, tracer)
    cache_after = DEFAULT_NULL_CONSTANTS.cache_info()
    # Set-up warmed the null constants, so no timed pass may compute them.
    gate.expect("null_constants_warm", cache_after.misses - cache_before.misses, 0)
    workload.final_checks(gate)

    medians = call_medians(passes)
    detail = workload.detail(medians)
    detail["passes"] = len(passes)
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(gate.failures) / max(gate.attempted, 1),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    else:
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        detail["default_null_constants_lookups"] = lookups
        metrics, selfs = layer_metrics(tracer.spans, passes, hits / lookups if lookups else 1.0)
        check_traced_graphs(tracer.spans, workload, gate)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}

    correct = not gate.failures
    stem = f"{args.workload}-{size_name}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": environment(args, variant),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": detail,
        "passes": passes,
        "correct": correct,
        "attempted": gate.attempted,
        "failures": gate.failures,
    }
    if tracer is not None:
        result["moves"] = {name: moves for name, (_, _, moves) in PER_LAYER.items()}
        with open(os.path.join(OUT_DIR, stem + ".trace.json"), "w", encoding="utf-8") as fh:
            json.dump(dict(trace_document(tracer.spans, selfs, passes),
                           environment=result["environment"]), fh)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in detail.items():
        print(f"detail {name} = {value:.6g}" if isinstance(value, float) else
              f"detail {name} = {value}")
    for failure in gate.failures:
        print(f"FAILED {json.dumps(failure)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": result["metrics"]}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "manifold_xi", "__init__.py")):
        print(f"no manifold_xi source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Cap BLAS threads at the CPUs this process may use, before numpy loads;
    # the functions above import numpy, the library and the bench modules
    # only after this point.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path[:0] = [SRC, BENCH_DIR]
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.pin:
        pin()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
