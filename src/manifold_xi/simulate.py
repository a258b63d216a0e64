"""Experiment harness: size/power studies over a scenario grid.

A configuration spans ``cases x transforms x m_grid x rho_grid``; every
grid cell runs ``reps`` independent replicates of data generation followed
by each requested test, and the rejection frequency per (cell, method)
becomes one :class:`PowerRecord`.  Replicate seeds derive from
``(master_seed, cell_index, replicate)``, cells are independent work
items, and aggregation is order-free, so results are identical for any
thread count and two runs of the same configuration produce byte-identical
CSV output (modulo the ``elapsed_ms`` column).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, fields

from .dep_tests import (
    DEFAULT_PERMUTATIONS,
    METHODS,
    MIN_PERMUTATIONS,
    TAILS,
    _check_alpha,
    run_test,
)
from .errors import DatasetFormatError, InvalidInputError, check_choice, check_int, check_real
from .manifold_gen import (
    CASES,
    TRANSFORMS,
    ScenarioSpec,
    _infeasibility,
    generate,
    linear_embedding_matrix,
    matrix_hash,
)
from .null_constants import default_null_constants
from .rngs import parallel_map, worker_count

CSV_HEADER = "case,transform,m,rho,method,n,reps,rejection_rate,mc_stderr,r_matrix_hash,elapsed_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    """A size/power study; every field is checked as given, never converted."""

    cases: tuple
    transforms: tuple
    m_grid: tuple
    rho_grid: tuple
    n: int = 100
    reps: int = 1000
    alpha: float = 0.05
    methods: tuple = ("xi_asymptotic", "dcor_permutation")
    B: int = DEFAULT_PERMUTATIONS
    master_seed: int = 0
    threads: int | None = None  # None means auto
    xi_tail: str = "right"  # "two_sided" reproduces two-sided-threshold studies

    def __post_init__(self):
        grids = (("cases", lambda v: check_choice("case", v, CASES)),
                 ("transforms", lambda v: check_choice("transform", v, TRANSFORMS)),
                 ("m_grid", lambda v: check_int("m_grid entry", v, 1)),
                 ("rho_grid", lambda v: check_real("rho_grid entry", v, 0.0)),
                 ("methods", lambda v: check_choice("method", v, METHODS)))
        for name, check_entry in grids:
            grid = getattr(self, name)
            if not (isinstance(grid, tuple) and grid):
                raise InvalidInputError(f"{name} must be a non-empty tuple, got {grid!r}")
            for entry in grid:
                check_entry(entry)
            if len(set(grid)) < len(grid):  # a repeat would run a cell twice
                raise InvalidInputError(f"{name} must list each entry once, got {grid!r}")
        check_int("n", self.n, 4)
        check_int("reps", self.reps, 1)
        _check_alpha(self.alpha)
        check_int("B", self.B, MIN_PERMUTATIONS)
        check_int("master_seed", self.master_seed, 0)
        worker_count(self.threads)  # None, or an integer >= 1
        check_choice("xi_tail", self.xi_tail, TAILS)


@dataclass
class PowerRecord:
    """Rejection frequency of one method in one grid cell.

    ``rejection_rate * reps`` is an exact integer count and
    ``mc_stderr = sqrt(p(1-p)/reps)``.  Cells that cannot be generated
    (infeasible gaussian correlation) carry ``skip_reason`` and NaN rates.
    """

    case: str
    transform: str
    m: int
    rho: float
    method: str
    n: int
    reps: int
    rejection_rate: float
    mc_stderr: float
    r_matrix_hash: str | None
    elapsed_ms: int
    skip_reason: str | None = None


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a configuration from parsed JSON; unknown keys are rejected."""
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise DatasetFormatError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {key: tuple(value) if isinstance(value, list) else value
              for key, value in raw.items()}
    if kwargs.get("threads") == "auto":
        kwargs["threads"] = None
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise DatasetFormatError(f"bad config: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON configuration file (a UTF-8 byte-order mark is skipped);
    see :func:`config_from_dict`."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetFormatError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise DatasetFormatError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


def _run_cell(cell_index: int, case: str, transform: str, m: int, rho: float,
              config: ExperimentConfig) -> list[PowerRecord]:
    start = time.perf_counter()
    base = dict(case=case, transform=transform, m=m, rho=rho, n=config.n,
                reps=config.reps)
    if skip_reason := _infeasibility(case, m, rho):
        return [PowerRecord(**base, method=method, rejection_rate=math.nan,
                            mc_stderr=math.nan, r_matrix_hash=None, elapsed_ms=0,
                            skip_reason=skip_reason) for method in config.methods]
    r_hash = (matrix_hash(linear_embedding_matrix(m, config.master_seed))
              if transform == "linear_embed" else None)
    counts = dict.fromkeys(config.methods, 0)
    for rep in range(config.reps):
        spec = ScenarioSpec(case=case, transform=transform, m=m, rho=rho,
                            n=config.n, seed=(config.master_seed, cell_index, rep, 0),
                            r_seed=config.master_seed)
        data = generate(spec)
        for k, method in enumerate(config.methods):
            # Only reject is read, so each permutation test may stop drawing
            # once it cannot reject: the counts are the full-B ones.
            res = run_test(method, data.x, data.y, config.alpha, m=m,
                           tail=config.xi_tail, B=config.B,
                           seed=(config.master_seed, cell_index, rep, 1 + k),
                           _stop_at_decision=True)
            counts[method] += res.reject
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    records = []
    for method in config.methods:
        p_hat = counts[method] / config.reps
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / config.reps)
        records.append(PowerRecord(**base, method=method, rejection_rate=p_hat,
                                   mc_stderr=stderr, r_matrix_hash=r_hash,
                                   elapsed_ms=elapsed_ms))
    return records


def run_experiment(config: ExperimentConfig, log=None) -> list[PowerRecord]:
    """Run every grid cell of a configuration and return sorted records.

    Cells run on a thread pool (``config.threads``, default: usable CPUs);
    per-cell seeds are deterministic, so the output does not depend on the
    thread count.  Infeasible gaussian cells are recorded as skipped (see
    :class:`PowerRecord`) and the run continues.  ``log``, if given, gets
    a progress line per computed (cell, method), none for skipped cells.

    A record needs only each test's ``reject``, so each permutation test
    stops drawing once it can no longer reject at ``config.alpha``.  The
    rejection counts, and so the CSV, are those of tests that draw all
    ``config.B`` permutations, as every call outside the harness does.
    """
    cells = list(enumerate(itertools.product(
        config.cases, config.transforms, config.m_grid, config.rho_grid)))
    if "xi_asymptotic" in config.methods:
        for m in sorted(set(config.m_grid)):
            default_null_constants(m)  # warm the cache once, off the pool

    def run(item) -> list[PowerRecord]:
        index, (case, transform, m, rho) = item
        records = _run_cell(index, case, transform, m, rho, config)
        if log is not None:
            for rec in records:
                if not rec.skip_reason:
                    log(f"{rec.case}/{rec.transform} m={rec.m} rho={rec.rho:g} "
                        f"{rec.method}: rate={rec.rejection_rate:.4f}")
        return records

    flat = [rec for records in parallel_map(run, cells, config.threads)
            for rec in records]
    flat.sort(key=lambda r: (r.case, r.transform, r.m, r.rho, r.method))
    return flat


def records_to_csv(records: list[PowerRecord], stream) -> None:
    """Write records under the fixed schema (floats at 6 significant digits)."""
    stream.write(CSV_HEADER + "\n")
    for r in records:
        stream.write(",".join([
            r.case, r.transform, str(r.m), f"{r.rho:.6g}", r.method,
            str(r.n), str(r.reps), f"{r.rejection_rate:.6g}",
            f"{r.mc_stderr:.6g}", r.r_matrix_hash or "", str(r.elapsed_ms),
        ]) + "\n")
