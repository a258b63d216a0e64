"""Command-line front end.

Subcommands
-----------
constants   null-variance constants table (CSV/JSON)
xi          coefficient value for a CSV dataset
test        one independence test on a CSV dataset (JSON result)
simulate    size/power study from a JSON config (CSV records)
verify-nng  empirical NN pair/triple frequencies vs the constants
gen         generate a synthetic dataset (CSV + JSON sidecar)

Exit status: 0 on success, 2 on usage errors, 1 on runtime errors.
``simulate --threads`` overrides the config's ``threads`` (default: usable CPUs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .dep_tests import DEFAULT_PERMUTATIONS, METHODS, TAILS, result_as_dict, run_test
from .errors import DatasetFormatError, ManifoldXiError, check_int
from .manifold_gen import (
    CASES,
    TRANSFORMS,
    ScenarioSpec,
    generate,
    read_dataset_csv,
    scenario_metadata,
    write_dataset_csv,
)
from .nn_graph import GEOMETRIES, estimate_constants_empirical
from .null_constants import (
    DEFAULT_SEED,
    DEFAULT_TRIPLE_SAMPLES,
    ball_volume,
    constants_as_dict,
    default_null_constants,
    null_variance,
    write_constants_csv,
)
from .rank_xi import xi_n
from .simulate import load_config, records_to_csv, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-xi",
        description="Graph-based dependence coefficient, manifold-adaptive "
                    "null constants, independence tests, and power studies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="null-variance constants table")
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--om-samples", type=int, default=DEFAULT_TRIPLE_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--source", choices=("mc", "table"), default="mc")
    p.add_argument("--out", default=None,
                   help="output file (.json for JSON, CSV otherwise; default stdout)")

    p = sub.add_parser("xi", help="print the coefficient for a dataset")
    p.add_argument("--input", required=True, help="CSV with header y,x1..xD")

    p = sub.add_parser("test", help="run one independence test")
    p.add_argument("--input", required=True, help="CSV with header y,x1..xD")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--dim", type=int, default=None,
                   help="intrinsic dimension (required for xi_asymptotic)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail", choices=TAILS, default="right",
                   help="rejection tail for xi_asymptotic")

    p = sub.add_parser("simulate", help="run a power study from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="CSV output (default stdout)")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines (skipped cells still print)")

    p = sub.add_parser("verify-nng", help="empirical pair/triple frequencies")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--geometry", choices=GEOMETRIES, default="torus")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--case", required=True, choices=CASES)
    p.add_argument("--transform", default="manifold_embed", choices=TRANSFORMS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-seed", type=int, default=None,
                   help="seed for the linear embedding matrix (default: --seed)")
    p.add_argument("--out", required=True)
    return parser


def _write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")


def _read_dataset(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return read_dataset_csv(fh)
    except UnicodeDecodeError:
        raise DatasetFormatError(f"{path}: not UTF-8 text") from None
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def _cmd_constants(args) -> int:
    check_int("--m-max", args.m_max, 1)
    ball_volume(args.m_max)  # refuse an m too large for the constants before any row
    source = "table" if args.source == "table" else "monte_carlo"
    rows = [null_variance(m, o_samples=args.om_samples, seed=args.seed, source=source)
            for m in range(1, args.m_max + 1)]
    if args.out and args.out.endswith(".json"):
        _write_json(args.out, [constants_as_dict(c) for c in rows])
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_constants_csv(rows, fh)
    else:
        write_constants_csv(rows, sys.stdout)
    return 0


def _cmd_xi(args) -> int:
    x, y = _read_dataset(args.input)
    print(f"{xi_n(x, y).value:.10g}")
    return 0


def _cmd_test(args) -> int:
    x, y = _read_dataset(args.input)
    result = run_test(args.method, x, y, args.alpha, m=args.dim, tail=args.tail,
                      B=args.permutations, seed=args.seed)
    print(json.dumps(result_as_dict(result, m=args.dim)))
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.threads is not None:
        config = dataclasses.replace(config, threads=args.threads)
    log = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    records = run_experiment(config, log=log)
    for rec in records:
        if rec.skip_reason:
            print(f"skipped {rec.case}/{rec.transform} m={rec.m} rho={rec.rho:g} "
                  f"{rec.method}: {rec.skip_reason}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            records_to_csv(records, fh)
    else:
        records_to_csv(records, sys.stdout)
    return 0


def _cmd_verify_nng(args) -> int:
    ball_volume(args.m)  # refuse an m too large for the constants before simulating
    est = estimate_constants_empirical(args.m, args.n, args.reps,
                                       geometry=args.geometry, seed=args.seed)
    ref = default_null_constants(args.m)
    pair_dev = ((est.pair_rate - ref.pair_limit) / est.pair_stderr
                if est.pair_stderr else float("nan"))
    triple_dev = ((est.triple_rate - ref.triple_limit) / est.triple_stderr
                  if est.triple_stderr else float("nan"))
    print(f"m={args.m} n={args.n} reps={args.reps} geometry={args.geometry}")
    print(f"pair rate   : {est.pair_rate:.5f} +- {est.pair_stderr:.5f}  "
          f"(limit {ref.pair_limit:.5f}, dev {pair_dev:+.2f} se)")
    print(f"triple rate : {est.triple_rate:.5f} +- {est.triple_stderr:.5f}  "
          f"(limit {ref.triple_limit:.5f} +- {ref.triple_stderr:.5f}, "
          f"dev {triple_dev:+.2f} se)")
    return 0


def _cmd_gen(args) -> int:
    r_seed = args.seed if args.r_seed is None else args.r_seed
    spec = ScenarioSpec(case=args.case, transform=args.transform, m=args.m,
                        rho=args.rho, n=args.n, seed=args.seed, r_seed=r_seed)
    data = generate(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_dataset_csv(fh, data.x, data.y)
    _write_json(args.out + ".meta.json", scenario_metadata(spec))
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "xi": _cmd_xi,
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "verify-nng": _cmd_verify_nng,
    "gen": _cmd_gen,
}


def cli_dispatch(argv) -> int:
    """Parse ``argv`` (no program name) and run; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ManifoldXiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
