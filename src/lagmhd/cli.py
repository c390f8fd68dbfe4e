"""Command-line driver: run, compare, oracle, admissible, fit."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import errors
from .config import parse_config
from .energy import fit_decay_rate
from .oracle import PowerLawProfile, linear_decay_oracle
from .runner import compare_formulations, read_diagnostics, run_simulation


# the library errors a command ends on: one line on stderr, exit code 1
_ERRORS = (OSError, errors.ConfigError, errors.CheckpointFormatError,
           errors.InitialDataError, errors.NonTransversalError,
           errors.ConstructionFailedError, errors.NotConvergedError,
           errors.OracleQuadratureError)


def _load_config(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_run(args) -> int:
    config = _load_config(args)
    if args.output:
        config.output_dir = args.output
    if args.resume:
        config.checkpoint_in = args.resume
    report = run_simulation(config)
    print(report.summary())
    if report.csv_path:
        print(f"diagnostics: {report.csv_path}")
        print(f"checkpoint : {report.checkpoint_path}")
    return 2 if report.aborted else 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    report = compare_formulations(config)
    print(report.summary())
    return 0


def _cmd_oracle(args) -> int:
    t_grid = np.geomspace(args.t_min, args.t_max, args.points)
    profile = PowerLawProfile(k_min=args.k_min, k_max=args.k_max)
    norms = linear_decay_oracle(t_grid, norms=tuple(args.norms), profile=profile)
    header = "t," + ",".join(args.norms)
    lines = [header]
    for i, t in enumerate(t_grid):
        lines.append(
            f"{t:.17g}," + ",".join(f"{norms[n][i]:.17g}" for n in args.norms)
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for name in args.norms:
        fit = fit_decay_rate(t_grid, norms[name], (args.t_min, args.t_max))
        print(f"# {name}: slope {fit.slope:.4f}, r2 {fit.r_squared:.6f}")
    return 0


def _analytic_b0(case: str, amp: float, halfwidth: float):
    """e1 plus curl(0, 0, psi), psi = chi(x1) sin(x2), with a compactly
    supported profile chi built from the bump exp(-1 / (1 - (x1/halfwidth)^2))."""
    if case not in ("uniform", "zero-mean", "nonzero-mean"):
        raise ValueError(f"unknown case '{case}'")

    def b0(pts):
        pts = np.atleast_2d(pts)
        x = pts[:, 0]
        inside = np.abs(x) < halfwidth
        xi = x[inside] / halfwidth
        core, dcore = np.zeros_like(x), np.zeros_like(x)
        core[inside] = np.exp(-1.0 / (1.0 - xi * xi))
        # the analytic derivative: a centered difference of chi would lose accuracy
        dcore[inside] = core[inside] * (-2.0 * xi / (1.0 - xi * xi) ** 2) / halfwidth
        if case == "zero-mean":
            chi = amp * (x / halfwidth) * core
            dchi = amp * (core / halfwidth + (x / halfwidth) * dcore)
        elif case == "nonzero-mean":
            chi, dchi = amp * core, amp * dcore
        else:
            chi = dchi = np.zeros_like(x)
        out = np.zeros_like(pts)
        out[:, 0] = 1.0 + chi * np.cos(pts[:, 1])  # d2 psi
        out[:, 1] = -dchi * np.sin(pts[:, 1])  # -d1 psi
        return out

    return b0


def _cmd_admissible(args) -> int:
    from .admissibility import check_admissible

    b0 = _analytic_b0(args.case, args.amplitude, args.halfwidth)
    grid_1d = np.linspace(0.0, 2.0 * np.pi, args.seeds, endpoint=False)
    seeds = np.stack(
        np.meshgrid(grid_1d, grid_1d, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    report = check_admissible(b0, args.halfwidth, args.tol, seeds)
    sys.stdout.write(report.to_csv())
    print(f"# max |integral| = {report.max_abs_integral:.6e}")
    print(f"# tolerance      = {report.tolerance:.6e}")
    print(f"# admissible     = {report.admissible}")
    return 0 if report.admissible else 3


def _cmd_fit(args) -> int:
    data = read_diagnostics(args.csv)
    if args.column not in data:
        print(f"column '{args.column}' not in {sorted(data)}", file=sys.stderr)
        return 1
    try:
        fit = fit_decay_rate(data["t"], data[args.column], tuple(args.window))
    except ValueError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.column}: slope {fit.slope:.6f}, intercept {fit.intercept:.6f}, "
        f"r2 {fit.r_squared:.6f} on window {fit.window}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagmhd",
        description="Flow-map MHD simulator with a weighted energy ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="advance a configured simulation")
    compare_p = sub.add_parser("compare", help="cross-validate the two formulations")
    for p in (run_p, compare_p):
        p.add_argument("--config", required=True, help="key=value config file")
    run_p.add_argument("--output", default="", help="output directory")
    run_p.add_argument("--resume", default="", help="checkpoint to resume from")
    run_p.set_defaults(func=_cmd_run)
    compare_p.set_defaults(func=_cmd_compare)

    oracle_p = sub.add_parser("oracle", help="whole-space linear decay quadrature")
    oracle_p.add_argument("--t-min", type=float, default=1e2, help="> 0")
    oracle_p.add_argument("--t-max", type=float, default=1e4, help="> --t-min")
    oracle_p.add_argument("--points", type=int, default=17, help=">= 10")
    oracle_p.add_argument("--k-min", type=float, default=1e-3)
    oracle_p.add_argument("--k-max", type=float, default=2.0)
    oracle_p.add_argument(
        "--norms", nargs="+", default=["grad_yt_h2", "grad_d1yt_h1"]
    )
    oracle_p.add_argument("--out", default="", help="CSV output path (default stdout)")
    oracle_p.set_defaults(func=_cmd_oracle)

    adm_p = sub.add_parser("admissible", help="plane-seeded admissibility integrals")
    adm_p.add_argument(
        "--case",
        choices=("uniform", "zero-mean", "nonzero-mean"),
        default="zero-mean",
    )
    adm_p.add_argument("--amplitude", type=float, default=1e-7)
    adm_p.add_argument("--halfwidth", type=float, default=np.pi)
    adm_p.add_argument("--tol", type=float, default=1e-6)
    adm_p.add_argument("--seeds", type=int, default=5, help="seeds per transverse axis, >= 1")
    adm_p.set_defaults(func=_cmd_admissible)

    fit_p = sub.add_parser("fit", help="log-log decay fit on a diagnostics CSV column")
    fit_p.add_argument("--csv", required=True)
    fit_p.add_argument("--column", default="D_grad_yt_h2")
    fit_p.add_argument("--window", type=float, nargs=2, default=[5.0, 50.0])
    fit_p.set_defaults(func=_cmd_fit)

    args = parser.parse_args(argv)
    if args.command == "oracle":
        if args.points < 10:
            oracle_p.error("--points must be >= 10, the samples a decay fit needs")
        if not 0 < args.t_min < args.t_max < np.inf:
            oracle_p.error("the times must satisfy 0 < --t-min < --t-max < inf")
        if not 0 < args.k_min < args.k_max:
            oracle_p.error("the wavenumbers must satisfy 0 < --k-min < --k-max")
    elif args.command == "admissible":
        if args.seeds < 1:
            adm_p.error("--seeds must be >= 1")
        if not 0 < args.halfwidth < np.inf:
            adm_p.error("--halfwidth must be positive and finite")
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"lagmhd: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
