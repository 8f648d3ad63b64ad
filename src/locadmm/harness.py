"""Command-line front end.

Subcommands: ``generate`` (write a network file), ``run`` (solve and export
a trace plus estimates), ``sweep`` (penalty/seed grids), ``oracle-check``
(closed-form versus dense battery on a toy instance), and ``compare``
(recompute the position error of an estimates file). ``LOCADMM_SEED``
overrides ``--seed`` everywhere. All files are UTF-8; traces are CSV with a
``.`` decimal separator.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import diagnostics, grid, network, oracle
from .engine import RunResult
from .errors import InvalidParameter, LocadmmError, NonFiniteValue
from .solver_full import InitSpec, run_full
from .solver_lite import run_lite
from .structured_ops import PenaltyParams

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2

THREADS_HELP = "kept for compatibility; has no effect"


def execute_run(graph, truth, measurements, args, *, c, rho, seed, metrics) -> RunResult:
    """Run ``args.algo`` for ``args.iters`` iterations from the start that
    ``args.init``, ``args.init_lo``, ``args.init_hi`` and ``args.u0`` name
    (options of ``run`` and ``sweep``), recording ``metrics``.

    ``rho=None`` runs at the bound for ``c`` times ``args.rho_scale``.
    Every ``rmse`` is dropped without truth or free nodes, and every
    ``potential`` for ``lite``. The returned result carries the trace.
    """
    bounds = None
    if rho is None:
        bounds = diagnostics.parameter_bounds(graph, measurements, c)
        rho = bounds.rho_min * args.rho_scale
    params = PenaltyParams(c=c, rho=rho)
    metrics = _recordable(metrics, _scored(graph, truth), args.algo)
    init = _init_spec(args, truth)

    potential_coeffs = None
    if "potential" in metrics:
        if bounds is None:
            bounds = diagnostics.parameter_bounds(graph, measurements, c)
        potential_coeffs = (bounds.kappa1_min, bounds.kappa2_min)

    recorder = diagnostics.TraceRecorder(
        graph,
        measurements,
        params,
        truth=truth,
        metrics=metrics,
        potential_coeffs=potential_coeffs,
        metadata={
            "algorithm": args.algo,
            "c": repr(params.c),
            "rho": repr(params.rho),
            "kappa1": "" if bounds is None else repr(bounds.kappa1_min),
            "kappa2": "" if bounds is None else repr(bounds.kappa2_min),
            "seed": seed,
            "iters": args.iters,
            "init": args.init,
            "u0": args.u0,
        },
    )
    runner = run_full if args.algo == "full" else run_lite
    result = runner(graph, measurements, params, init, args.iters, seed=seed, hook=recorder)
    result.trace = recorder.trace
    return result


def _scored(graph, truth):
    """``truth`` where a position error is defined, else ``None``: rmse
    averages over the free nodes, so it has none when every node is an
    anchor."""
    return truth if graph.num_anchors < graph.num_nodes else None


def _recordable(metrics, truth, algo: str) -> list:
    """``metrics`` without those the run cannot record: every ``rmse``
    without truth, every ``potential`` for ``lite``."""
    return [
        m for m in metrics
        if (m != "rmse" or truth is not None) and (m != "potential" or algo != "lite")
    ]


def _init_spec(args, truth) -> InitSpec:
    """The start that ``args.init``, ``args.init_lo``, ``args.init_hi`` and
    ``args.u0`` name; ``truth`` starts from the file's positions."""
    kind, positions = args.init, None
    if kind == "truth":
        if truth is None:
            raise InvalidParameter("init 'truth' needs a network file with positions")
        kind, positions = "from_positions", truth.positions
    return InitSpec(kind, lo=args.init_lo, hi=args.init_hi, positions=positions, u_init=args.u0)


def _load_measured(path):
    """``load_network(path)``, which must carry measurements."""
    graph, truth, measurements = network.load_network(path)
    if measurements is None:
        raise InvalidParameter(f"{path} carries no measurements")
    return graph, truth, measurements


def _seed(args) -> int:
    """``LOCADMM_SEED`` if set, else ``--seed``."""
    env = os.environ.get("LOCADMM_SEED")
    return _parse_seed(args.seed, "--seed") if env is None else _parse_seed(env, "LOCADMM_SEED")


def _parse_seed(value, option: str) -> int:
    """A seed: a non-negative integer, the only kind NumPy's generators take."""
    seed = _parse_number(value, option, int)
    if seed < 0:
        raise InvalidParameter(f"{option}: seeds must be non-negative integers, got {seed}")
    return seed


def _cmd_generate(args) -> int:
    seed = _seed(args)
    graph, truth = network.generate_rgg(
        args.nodes, args.anchors, args.range, args.side, args.dim, seed
    )
    kind = "additive-white" if args.noise == "awgn" else "range-dependent"
    model = network.NoiseModel(kind=kind, sigma_add=args.sigma)
    measurements = network.measure(truth, graph, model, seed)
    network.save_network(args.out, graph, truth, measurements)
    print(
        f"wrote {args.out}: N={graph.num_nodes} m={graph.num_anchors} "
        f"D_avg={graph.avg_degree:.4f} N_max={graph.max_degree} "
        f"d_max={measurements.max_range:.6f}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    graph, truth, measurements = _load_measured(args.net)
    metrics = _parse_metrics(args.metrics) + (("wall",) if args.wall else ())
    try:
        result = execute_run(
            graph, truth, measurements, args,
            c=args.c, rho=_parse_rho(args.rho), seed=_seed(args), metrics=metrics,
        )
    except NonFiniteValue as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    if args.trace:
        result.trace.to_csv(args.trace)
    if args.est:
        est_truth = network.GroundTruth(result.estimates)
        network.save_network(args.est, graph, est_truth, measurements)
    final = result.trace.rows[-1]
    summary = f"done: iters={args.iters}"
    if final.rmse is not None:
        summary += f" rmse={final.rmse!r}"
    print(summary)
    return EXIT_OK


def _parse_rho(text: str, option: str = "--rho") -> Optional[float]:
    """A ``--rho`` value: a number, or ``auto`` (``None``) for the bound."""
    return None if text == "auto" else _parse_number(text, option)


def _parse_number(text: str, option: str, kind=float):
    """``kind(text)``, or ``InvalidParameter`` naming the option and entry."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidParameter(f"{option}: bad entry {text!r}") from None


def _parse_metrics(spec: str) -> tuple:
    if spec == "none":
        return ()
    if spec == "all":
        return diagnostics.METRICS
    return tuple(s for s in spec.split(",") if s)


def _cmd_sweep(args) -> int:
    graph, truth, measurements = _load_measured(args.net)
    c_values = [_parse_number(x, "--c-list") for x in args.c_list.split(",")]
    rho_values = [_parse_rho(x, "--rho-list") for x in args.rho_list.split(",")]
    if args.seeds:
        seeds = [_parse_seed(x, "--seeds") for x in args.seeds.split(",")]
    else:
        seeds = [_seed(args)]

    cells = []
    for c in c_values:
        for rho in rho_values:
            if rho is None:
                # resolved as execute_run resolves "auto", so the CSV names it
                rho = diagnostics.parameter_bounds(graph, measurements, c).rho_min
            cells += [(PenaltyParams(c=c, rho=rho), seed) for seed in seeds]
    runs = grid.run_grid(
        args.algo, graph, measurements, cells, _init_spec(args, truth), args.iters,
        truth=_scored(graph, truth),
    )
    lines = ["c,rho,seed,final_rmse,min_F,diverged"]
    for run in runs:
        cell = f"{run.params.c!r},{run.params.rho!r},{run.seed}"
        if run.result is None:
            lines.append(f"{cell},,,1")
            continue
        rows = run.result.trace.rows
        final_rmse = rows[-1].rmse
        min_gap = min(r.F for r in rows[1:])  # F is recorded from t = 1 on
        lines.append(f"{cell},{'' if final_rmse is None else repr(final_rmse)},{min_gap!r},0")
    text = "\n".join(lines) + "\n"
    if args.out:
        network.write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    graph, _, measurements = _load_measured(args.net)
    report = oracle.oracle_check(
        graph, measurements, c=args.c, seed=_seed(args), trials=args.trials
    )
    print(
        f"operators: {report.max_operator_error:.3e} (tol {report.OPERATOR_TOL:.0e})\n"
        f"combine:   {report.max_combine_error:.3e} (tol {report.COMBINE_TOL:.0e})\n"
        f"projection:{report.max_projection_error:.3e} (tol {report.PROJECTION_TOL:.0e})\n"
        f"{'PASS' if report.passed else 'FAIL'} over {report.trials} trials"
    )
    return EXIT_OK if report.passed else EXIT_ERROR


def _cmd_compare(args) -> int:
    graph, truth, _ = network.load_network(args.net)
    if truth is None:
        raise InvalidParameter(f"{args.net} carries no positions to compare against")
    _, estimates, _ = network.load_network(args.est)
    if estimates is None:
        raise InvalidParameter(f"{args.est} carries no positions")
    if estimates.positions.shape != truth.positions.shape:
        (n, dim), (est_n, est_dim) = truth.positions.shape, estimates.positions.shape
        raise InvalidParameter(
            f"{args.est} holds {est_n} positions in dim {est_dim}, "
            f"but {args.net} has {n} nodes in dim {dim}"
        )
    value = network.rmse(estimates.positions, truth, graph)
    print(f"rmse={value!r}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``locadmm`` argument parser, built once per process and shared:
    parsing leaves it unchanged, and every call to ``main`` gets a fresh
    namespace from it."""
    parser = argparse.ArgumentParser(
        prog="locadmm",
        description="Distributed range-based localization solvers and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random network file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--anchors", type=int, required=True)
    gen.add_argument("--range", type=float, required=True)
    gen.add_argument("--side", type=float, default=1.0)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--sigma", type=float, default=0.0)
    gen.add_argument("--noise", choices=("awgn", "range"), default="awgn")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run a solver and export trace/estimates")
    run.add_argument("--net", required=True)
    run.add_argument("--algo", choices=("full", "lite"), default="full")
    run.add_argument("--c", type=float, required=True)
    run.add_argument("--rho", default="auto", help="proximal penalty, or 'auto'")
    run.add_argument("--rho-scale", type=float, default=1.0,
                     help="multiplier on the auto bound (explore below it)")
    run.add_argument("--iters", type=int, required=True)
    run.add_argument("--metrics", default=",".join(diagnostics.DEFAULT_METRICS),
                     help="comma list, or 'all'/'none'")
    run.add_argument("--wall", action="store_true",
                     help="record wall time (breaks byte reproducibility)")
    run.add_argument("--trace")
    run.add_argument("--est")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="grid over penalties and seeds")
    sweep.add_argument("--net", required=True)
    sweep.add_argument("--algo", choices=("full", "lite"), default="lite")
    sweep.add_argument("--c-list", required=True)
    sweep.add_argument("--rho-list", required=True,
                       help="comma list; 'auto' entries use the bound for each c")
    sweep.add_argument("--seeds", default="")
    sweep.add_argument("--iters", type=int, required=True)
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)

    for cmd in (run, sweep):
        cmd.add_argument("--init", choices=("zeros", "uniform", "truth"), default="zeros")
        cmd.add_argument("--init-lo", type=float, default=-1.0)
        cmd.add_argument("--init-hi", type=float, default=1.0)
        cmd.add_argument("--u0", choices=("zeros", "half", "directions"), default="zeros")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--threads", type=int, help=THREADS_HELP)

    check = sub.add_parser("oracle-check", help="dense-versus-closed-form battery")
    check.add_argument("--net", required=True)
    check.add_argument("--c", type=float, default=1.0)
    check.add_argument("--trials", type=int, default=20)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_oracle_check)

    cmp_ = sub.add_parser("compare", help="recompute rmse of an estimates file")
    cmp_.add_argument("--net", required=True)
    cmp_.add_argument("--est", required=True)
    cmp_.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LocadmmError, OSError) as exc:  # bad input, or a file it cannot open or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
