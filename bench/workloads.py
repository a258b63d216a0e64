"""The three benchmark workloads, the canary, and the correctness gate.

Each workload is a closed loop: one caller in one process starts the next
library call only after the previous one returned.  The workload seed
selects one of ``VARIANTS`` input sets (``seed % VARIANTS``); the library
only sees the generated inputs.  Every output is checked against
``references.json``, pinned per variant from the parent source by
``run.py --pin``, so a changed NN index, coefficient, p-value, CSV row or
null constant fails the run.

Library functions are always looked up as module attributes at call time
(``rank_xi.xi_n``, not an imported name), so the wrappers that
:mod:`tracer` installs take effect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
from scipy.special import betainc

from manifold_xi import cli, dep_tests, manifold_gen, nn_graph, null_constants, rank_xi, simulate

VARIANTS = 8

# The undecorated cache, for cache_clear/cache_info while tracing wraps it.
DEFAULT_NULL_CONSTANTS = null_constants.default_null_constants

# Relative tolerance on Monte-Carlo constants: far below their stderr
# (~1e-3), wide enough for a different special-function implementation.
CONSTANTS_RTOL = 1e-9
ORACLE_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Size:
    desk: dict
    setup_repeats: int  # fresh imports timed for setup_s
    warm_repeats: int  # warm-ups timed for setup_s; each takes seconds on desk_reduced
    tree_n: int
    perm_B: int
    highd_n: int
    dup_n: int
    dup_levels: int
    const_ms: tuple
    const_samples: int
    verify: tuple  # (m, n, reps) of estimate_constants_empirical


SIZES = {
    "full": Size(
        desk=dict(rho_grid=(0.0, 0.2), reps=1, threads=1),
        setup_repeats=5, warm_repeats=3, tree_n=100_000, perm_B=199, highd_n=800,
        dup_n=10_000, dup_levels=10, const_ms=(1, 2, 3, 5, 10),
        const_samples=null_constants.DEFAULT_TRIPLE_SAMPLES, verify=(3, 100_000, 4)),
    # Only for the smoke test: every code path at a few seconds per run.
    "tiny": Size(
        desk=dict(cases=("linear", "wshape"), m_grid=(1, 2), rho_grid=(0.0, 0.2),
                  reps=1, threads=1, B=19),
        setup_repeats=1, warm_repeats=1, tree_n=2_000, perm_B=19, highd_n=200, dup_n=700,
        dup_levels=10, const_ms=(1, 2), const_samples=10**5, verify=(3, 1_000, 2)),
}


def _normal(value):
    return json.loads(json.dumps(value))


def _matches(observed, expected, rtol: float) -> bool:
    if rtol == 0.0:
        return observed == expected
    if not (isinstance(observed, list) and isinstance(expected, list)
            and len(observed) == len(expected)):
        return False
    return all(abs(o - e) <= rtol * abs(e) for o, e in zip(observed, expected))


class Gate:
    """Counts checked operations and records every mismatch or error."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, key: str, observed, rtol: float = 0.0) -> None:
        """Compare an output with its pinned reference."""
        self.expect(key, observed, self.refs.get(key), rtol)

    def expect(self, key: str, observed, expected, rtol: float = 0.0) -> None:
        """Compare an output with a value computed by the bench itself."""
        self.attempted += 1
        observed = _normal(observed)
        if expected is None or not _matches(observed, expected, rtol):
            self.failures.append({"key": key, "observed": observed, "expected": expected})

    def error(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append({"key": key, "error": f"{type(exc).__name__}: {exc}"})


class Pinner(Gate):
    """Records outputs as the new references; bench-side checks must hold."""

    def __init__(self):
        super().__init__({})
        self.values: dict = {}

    def check(self, key, observed, rtol=0.0):
        self.values[key] = _normal(observed)

    def expect(self, key, observed, expected, rtol=0.0):
        super().expect(key, observed, expected, rtol)
        if self.failures:
            raise RuntimeError(f"bench-side check failed while pinning: {self.failures}")

    def error(self, key, exc):
        raise exc


class Timer:
    """Wall time of each timed call of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls: dict[str, float] = {}

    def measure(self, label: str, fn):
        span = (self.tracer.span("bench.call", label=label) if self.tracer
                else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            result = fn()
            self.calls[label] = time.perf_counter() - start
        return result


def _attempt(gate: Gate, key: str, fn):
    """Run one checked operation; an exception counts as a failed one."""
    try:
        return fn()
    except Exception as exc:  # any library error is a failed operation
        gate.error(key, exc)
        return None


def csv_digest(records) -> str:
    """Digest of the simulate CSV with the elapsed_ms column stripped."""
    buf = io.StringIO()
    simulate.records_to_csv(records, buf)
    rows = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def nn_digest(x) -> str:
    nn = nn_graph.build_nn_graph(x).nn_index
    return hashlib.sha256(nn.astype("<i8").tobytes()).hexdigest()[:16]


def write_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    """Dataset CSV (``y,x1..xD``, full precision), written atomically."""
    lines = ["y," + ",".join(f"x{j + 1}" for j in range(x.shape[1]))]
    lines += [",".join(map(repr, [yi] + row)) for yi, row in zip(y.tolist(), x.tolist())]
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def run_cli(argv: list, in_process: bool) -> str:
    """``manifold-xi <argv>``: a subprocess, or ``cli_dispatch`` in-process."""
    if in_process:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.cli_dispatch(argv)
        if code != 0:
            raise RuntimeError(f"cli_dispatch exited with {code}")
        return out.getvalue().strip()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "manifold_xi.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    return proc.stdout.strip()


def oracle_xi(x: np.ndarray, y: np.ndarray) -> float:
    """The coefficient from its definition: all-pairs NN, counting ranks."""
    n = y.shape[0]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    nn = d2.argmin(axis=1)
    ranks = (y[None, :] <= y[:, None]).sum(axis=1)
    rank_sum = int(np.minimum(ranks, ranks[nn]).sum())
    return 6.0 * rank_sum / (n * n - 1.0) - (2.0 * n + 1.0) / (n - 1.0)


def canary(gate: Gate, data_dir: str) -> None:
    """A few tiny pinned calls that reach every traced function once.

    They are the same in every workload and every seed, so they check the
    program independently of the variant pins, and every per-layer metric
    is measured on every workload.
    """
    config = simulate.ExperimentConfig(
        cases=("quadratic",), transforms=("manifold_embed",), m_grid=(1,),
        rho_grid=(0.5,), n=30, reps=2, methods=dep_tests.METHODS, B=19,
        master_seed=7, threads=1)
    records = _attempt(gate, "canary_csv", lambda: simulate.run_experiment(config))
    if records is not None:
        gate.check("canary_csv", csv_digest(records))

    rng = np.random.default_rng(12345)
    x = rng.random((40, 2))
    y = x[:, 0] + 0.1 * rng.standard_normal(40)
    path = os.path.join(data_dir, "canary.csv")
    write_csv(path, x, y)
    value = _attempt(gate, "canary_xi", lambda: rank_xi.xi_n(x, y).value)
    if value is not None:
        gate.check("canary_xi", repr(value))
        gate.expect("canary_xi_oracle", value, oracle_xi(x, y))
    stdout = _attempt(gate, "canary_cli", lambda: run_cli(["xi", "--input", path], True))
    if stdout is not None and value is not None:
        gate.expect("canary_cli", stdout, f"{value:.10g}")

    nv = _attempt(gate, "canary_nv",
                  lambda: null_constants.null_variance(2, o_samples=10**5, seed=11))
    if nv is not None:
        gate.check("canary_nv", [nv.pair_limit, nv.triple_limit, nv.sigma2,
                                 nv.triple_stderr], CONSTANTS_RTOL)
    est = _attempt(gate, "canary_empirical",
                   lambda: nn_graph.estimate_constants_empirical(2, 200, 3, seed=5,
                                                                 threads=1))
    if est is not None:
        gate.check("canary_empirical", [est.pair_rate, est.triple_rate,
                                        est.pair_stderr, est.triple_stderr],
                   CONSTANTS_RTOL)


class Workload:
    """One pass of timed calls, with optional set-up and once-per-run checks."""

    name = ""
    DATASET: dict = {}  # timed-call label -> the dataset whose NN graph it builds

    def warm(self) -> None:
        """Program set-up that ``setup_s`` times (beyond the import)."""

    def run_pass(self, gate: Gate, timer: Timer, cli_in_process: bool) -> None:
        raise NotImplementedError

    def final_checks(self, gate: Gate) -> None:
        """Untimed checks made once per run, after the timed passes."""

    def detail(self, medians: dict) -> dict:
        """Per-call figures for the result file, from per-label medians."""
        raise NotImplementedError


class DeskReduced(Workload):
    """``run_experiment`` on the desk-scale config, reduced, one thread."""

    name = "desk_reduced"

    def __init__(self, size: Size, variant: int, root: str, data_dir: str):
        base = simulate.load_config(os.path.join(root, "demos", "configs", "desk_scale.json"))
        self.config = dataclasses.replace(base, master_seed=base.master_seed + variant,
                                          **size.desk)
        c = self.config
        self.replicates = (len(c.cases) * len(c.transforms) * len(c.m_grid)
                           * len(c.rho_grid) * c.reps)

    def warm(self) -> None:
        """Program set-up before the first cell: the null constants per m."""
        DEFAULT_NULL_CONSTANTS.cache_clear()
        for m in sorted(set(self.config.m_grid)):
            null_constants.default_null_constants(m)

    def run_pass(self, gate: Gate, timer: Timer, cli_in_process: bool) -> None:
        records = _attempt(gate, "desk_csv", lambda: timer.measure(
            "run_experiment", lambda: simulate.run_experiment(self.config)))
        if records is not None:
            gate.check("desk_csv", csv_digest(records))

    def detail(self, medians: dict) -> dict:
        return {"ms_per_rep": 1000.0 * medians["run_experiment"] / self.replicates,
                "replicates_per_pass": self.replicates}


class LargeInputs(Workload):
    """An analyst's single-dataset calls at sizes the desk never reaches."""

    name = "large_inputs"
    DATASET = {"xi_tree": "tree", "xi_perm": "tree", "xi_highd": "highd",
               "xi_dup": "dup", "cli_xi": "tree"}

    def __init__(self, size: Size, variant: int, root: str, data_dir: str):
        rng = np.random.default_rng([20260808, variant])
        n = size.tree_n
        self.x = rng.random((n, 3))
        self.y = np.sin(2.0 * np.pi * self.x[:, 0]) + 0.5 * rng.standard_normal(n)
        self.B = size.perm_B
        self.perm_seed = 1000 + variant
        # An m=2 manifold in d=50: embed_manifold's 10 columns times a fixed
        # 10x50 Gaussian matrix (an elementwise sum, so no BLAS threading
        # can change the bits).
        z = rng.uniform(-1.0, 1.0, (size.highd_n, 2))
        mix = rng.standard_normal((10, 50))
        self.xh = (manifold_gen.embed_manifold(z)[:, :, None] * mix[None]).sum(axis=1)
        self.yh = z[:, 0] ** 2 + 0.1 * rng.standard_normal(size.highd_n)
        # Few distinct predictor values: every row has exact-duplicate ties.
        self.xd = rng.integers(0, size.dup_levels, (size.dup_n, 1)).astype(float)
        self.yd = self.xd[:, 0] + rng.standard_normal(size.dup_n)
        self.csv = os.path.join(data_dir, f"large_inputs-{size.tree_n}-v{variant}.csv")
        write_csv(self.csv, self.x, self.y)

    def run_pass(self, gate: Gate, timer: Timer, cli_in_process: bool) -> None:
        tree = _attempt(gate, "xi_tree", lambda: timer.measure(
            "xi_tree", lambda: rank_xi.xi_n(self.x, self.y).value))
        if tree is not None:
            gate.check("xi_tree", repr(tree))
        perm = _attempt(gate, "xi_perm", lambda: timer.measure(
            "xi_perm", lambda: dep_tests.xi_test_permutation(
                self.x, self.y, B=self.B, seed=self.perm_seed)))
        if perm is not None:
            gate.check("xi_perm", [perm.statistic, perm.p_value])
        for label, x, y in (("xi_highd", self.xh, self.yh), ("xi_dup", self.xd, self.yd)):
            value = _attempt(gate, label, lambda: timer.measure(
                label, lambda: rank_xi.xi_n(x, y).value))
            if value is not None:
                gate.check(label, repr(value))
        stdout = _attempt(gate, "cli_xi", lambda: timer.measure(
            "cli_xi", lambda: run_cli(["xi", "--input", self.csv], cli_in_process)))
        if stdout is not None:
            gate.check("cli_xi", stdout)
            if tree is not None:
                gate.expect("cli_xi_equals_api", stdout, f"{tree:.10g}")

    def final_checks(self, gate: Gate) -> None:
        for label, x in (("tree", self.x), ("highd", self.xh), ("dup", self.xd)):
            digest = _attempt(gate, f"nn_{label}", lambda: nn_digest(x))
            if digest is not None:
                gate.check(f"nn_{label}", digest)

    def detail(self, medians: dict) -> dict:
        return {f"{label}_s": medians[label] for label in self.DATASET if label in medians}


class ConstantsCold(Workload):
    """The null constants for the desk's m values and an empirical NN check, cold.

    The two Monte-Carlo calls run on one worker thread: on a shared two-CPU
    machine the wall time of the default two-worker fan-out moved by a
    third from run to run, one thread by far less.  The fan-out itself is
    still timed by ``desk_reduced``'s set-up.
    """

    name = "constants_cold"

    def __init__(self, size: Size, variant: int, root: str, data_dir: str):
        self.ms = size.const_ms
        self.samples = size.const_samples
        self.o_seed = null_constants.DEFAULT_SEED + variant
        self.verify = size.verify
        self.verify_seed = variant

    def constants(self, m: int) -> list:
        q = null_constants.nn_pair_limit(m)
        o, stderr = null_constants.nn_triple_limit_mc(m, samples=self.samples,
                                                      seed=self.o_seed, threads=1)
        return [q, o, stderr]

    def run_pass(self, gate: Gate, timer: Timer, cli_in_process: bool) -> None:
        for m in self.ms:
            key = f"constants_m{m}"
            row = _attempt(gate, key, lambda: timer.measure(key, lambda: self.constants(m)))
            if row is not None:
                gate.check(key, row, CONSTANTS_RTOL)
                q = 1.0 / (2.0 - float(betainc((m + 1) / 2.0, 0.5, 0.75)))
                gate.expect(f"q_oracle_m{m}", row[:1], [q], ORACLE_RTOL)
        m, n, reps = self.verify
        est = _attempt(gate, "empirical", lambda: timer.measure(
            "verify_nng", lambda: nn_graph.estimate_constants_empirical(
                m, n, reps, geometry="torus", seed=self.verify_seed, threads=1)))
        if est is not None:
            gate.check("empirical", [est.pair_rate, est.triple_rate, est.pair_stderr,
                                     est.triple_stderr], CONSTANTS_RTOL)

    def detail(self, medians: dict) -> dict:
        table = sum(v for k, v in medians.items() if k.startswith("constants_m"))
        return {"constants_table_s": table, "verify_nng_s": medians.get("verify_nng")}


WORKLOADS = {w.name: w for w in (DeskReduced, LargeInputs, ConstantsCold)}
