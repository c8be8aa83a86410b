"""Command-line front door: solve instances, evaluate constants, run the
Monte Carlo experiments, and run the invariant suite.

Exit codes: 0 success, 1 validation error or out of memory, 2 property
failure, 3 I/O error.
Every run prints its resolved configuration to stderr before executing, and
--seed (where stochastic) fully determines the output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bounds import beta_bounds, deviation_constants, ModelParams, SeriesConvergenceError
from .experiments import ExperimentConfig, ReportIOError, RUNNERS, report_to_json, write_report
from .geometry import build_tiling
from .invariants import run_invariant_suite
from .solvers import grid_tour, tsp_exact, two_opt
from .weights import BUILTIN_KINDS, make_weight_function

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_IO = 3


class CliError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse with errors routed to the validation exit code."""

    def error(self, message):
        raise CliError(message)


def load_points_csv(path: str) -> np.ndarray:
    """One x,y pair per line, decimal point, '#' comments, no header."""
    rows = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise CliError(f"{path}:{lineno}: expected 'x,y', got {line!r}")
                try:
                    x, y = float(parts[0]), float(parts[1])
                except ValueError:
                    raise CliError(f"{path}:{lineno}: non-numeric coordinate in {line!r}")
                if not (-0.5 <= x <= 0.5 and -0.5 <= y <= 0.5):
                    raise CliError(f"{path}:{lineno}: point ({x}, {y}) outside the unit square")
                rows.append((x, y))
    except OSError as exc:
        raise ReportIOError(f"cannot read points from {path!r}: {exc}") from exc
    if not rows:
        raise CliError(f"{path}: no points found")
    return np.array(rows, dtype=np.float64)


def echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(resolved, sort_keys=True, default=str)}", file=sys.stderr)


def emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_solve(args) -> int:
    pts = load_points_csv(args.points)
    wf = make_weight_function(args.weight)
    tour = tsp_exact(pts, wf, args.alpha)
    emit({
        "n": len(pts),
        "weight_kind": args.weight,
        "alpha": args.alpha,
        "solver": "exact",
        "order": list(tour.order),
        "weight": tour.weight,
    })
    return EXIT_OK


def cmd_tour(args) -> int:
    pts = load_points_csv(args.points)
    wf = make_weight_function(args.weight)
    tiling = build_tiling(len(pts), args.a)
    tour = grid_tour(pts, wf, args.alpha, tiling)
    solver = "grid_tour"
    if args.two_opt:
        tour = two_opt(pts, tour, wf, args.alpha)
        solver = "grid_tour+two_opt"
    emit({
        "n": len(pts),
        "weight_kind": args.weight,
        "alpha": args.alpha,
        "a_effective": tiling.a_effective,
        "within_window": tiling.within_window,
        "solver": solver,
        "order": list(tour.order),
        "weight": tour.weight,
    })
    return EXIT_OK


def cmd_bounds(args) -> int:
    mp = ModelParams(eps1=args.eps1, eps2=args.eps2, alpha=args.alpha,
                     c1=args.c1, c2=args.c2)
    c1_const, c2_const = deviation_constants(mp, args.a, tol=args.tol)
    emit({
        "a": args.a,
        "alpha": args.alpha,
        "delta": mp.delta,
        "c1_const": c1_const,
        "c2_const": c2_const,
    })
    return EXIT_OK


def cmd_beta(args) -> int:
    if args.curve:
        if not (math.isfinite(args.alpha_min) and math.isfinite(args.alpha_max)):
            raise CliError("--alpha-min and --alpha-max must be finite")
        if not args.alpha_step > 0.0:
            raise CliError(f"--alpha-step must be positive, got {args.alpha_step}")
        if args.alpha_min > args.alpha_max:
            raise CliError(f"--alpha-min {args.alpha_min} exceeds --alpha-max {args.alpha_max}")
        alphas = np.arange(args.alpha_min, args.alpha_max + 1e-12, args.alpha_step)
        print("alpha,beta_low,beta_up,argA_low,argA_up")
        for alpha in alphas:
            low, up = beta_bounds(float(alpha), args.eps1, args.eps2,
                                  a_max=args.a_max, grid_points=args.grid_points,
                                  refine_tol=args.refine_tol)
            print(f"{float(alpha)!r},{low.value!r},{up.value!r},{low.arg_a!r},{up.arg_a!r}")
        return EXIT_OK
    if args.alpha is None:
        raise CliError("--alpha is required unless --curve is given")
    low, up = beta_bounds(args.alpha, args.eps1, args.eps2, a_max=args.a_max,
                          grid_points=args.grid_points, refine_tol=args.refine_tol)
    emit({
        "alpha": args.alpha,
        "beta_low": low.value,
        "beta_up": up.value,
        "arg_a_low": low.arg_a,
        "arg_a_up": up.arg_a,
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ReportIOError(f"cannot read config from {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.config}: invalid JSON: {exc}")
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    cfg = ExperimentConfig.from_dict(raw)
    report = RUNNERS[args.kind](cfg)
    if args.out:
        write_report(report, args.out, format=args.format)
        print(f"wrote {args.format} report to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(report_to_json(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_invariant_suite(max_n=args.max_n, instances=args.instances, seed=args.seed)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY


def build_parser() -> Parser:
    parser = Parser(prog="powertsp",
                    description="Power-weighted location-dependent TSP laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_flags(p):
        p.add_argument("--weight", default="euclidean",
                       choices=BUILTIN_KINDS,
                       help="edge weight kind")
        p.add_argument("--alpha", type=float, default=1.0, help="edge weight exponent")

    p = sub.add_parser("solve", help="exact minimum tour of a points CSV")
    p.add_argument("--points", required=True, help="CSV file, one x,y per line")
    add_weight_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tour", help="constructive cell-chained tour of a points CSV")
    p.add_argument("--points", required=True, help="CSV file, one x,y per line")
    add_weight_flags(p)
    p.add_argument("--a", type=float, default=1.0, help="nominal cell-size parameter")
    p.add_argument("--two-opt", action="store_true", dest="two_opt",
                   help="polish the constructed tour with 2-opt and Or-opt moves")
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("bounds", help="deviation constants C1(A), C2(A)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps1", type=float, default=1.0, help="density infimum bound")
    p.add_argument("--eps2", type=float, default=1.0, help="density supremum bound")
    p.add_argument("--c1", type=float, default=1.0, help="lower weight equivalence constant")
    p.add_argument("--c2", type=float, default=1.0, help="upper weight equivalence constant")
    p.add_argument("--a", type=float, default=1.0, help="cell-size parameter A")
    p.add_argument("--tol", type=float, default=1e-9, help="moment series tolerance")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("beta", help="bracket constants beta_low / beta_up")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps1", type=float, default=1.0)
    p.add_argument("--eps2", type=float, default=1.0)
    p.add_argument("--a-max", type=float, default=5.0, dest="a_max",
                   help="upper end of the A search interval")
    p.add_argument("--grid-points", type=int, default=512, dest="grid_points")
    p.add_argument("--refine-tol", type=float, default=1e-10, dest="refine_tol")
    p.add_argument("--curve", action="store_true",
                   help="emit a CSV curve over a range of alpha instead of one value")
    p.add_argument("--alpha-min", type=float, default=0.25, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, default=2.0, dest="alpha_max")
    p.add_argument("--alpha-step", type=float, default=0.25, dest="alpha_step")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    p.add_argument("kind", choices=sorted(RUNNERS))
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--max-n", type=int, default=9, dest="max_n")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        echo_config(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReportIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, SeriesConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:  # overflow or underflow on extreme but finite numbers
        print(f"error: numbers out of range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
