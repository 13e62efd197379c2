"""Command line front end.

Subcommands:
    run    solve one configuration and print a summary line
    sweep  vary one or two configuration axes and write a table
    fit    sweep the subdomain size ratio and fit the spectrum growth
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .harness import (
    RUN_ERRORS,
    ExperimentConfig,
    fit_polylog,
    run_case,
    run_sweep,
    write_csv,
    write_json,
)
from .decomposition import InternalError
from .krylov import SpdViolationError, write_residual_history
from .mesh_fem import ConfigurationError


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a pair like 4x4")
    return int(parts[0]), int(parts[1])


def _parse_value(name: str, text: str, kind):
    """``kind(text)``; text that does not parse is a ConfigurationError."""
    try:
        return kind(text.strip())
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise ConfigurationError(f"{name}: cannot read {text!r}: {err}") from err


def _parse_black(items: list[str]) -> dict[str, float]:
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigurationError("expected key=value, e.g. E=1e3")
        key, value = item.split("=", 1)
        if key not in ("E", "nu", "alpha", "kappa"):
            raise ConfigurationError(f"unknown material key {key!r}")
        out[key] = _parse_value(key, value, float)
    return out


_AXIS_KINDS = {"nx": int, "ny": int, "max_iter": int, "subdomains": _parse_pair,
               **dict.fromkeys(("total_pressure", "primal", "multiplier_pc", "pattern", "bc"), str)}


def _parse_axis(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise ConfigurationError("expected axis=v1,v2,...")
    name, values = text.split("=", 1)
    return name, [_parse_value(name, tok, _AXIS_KINDS.get(name, float)) for tok in values.split(",")]


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with configuration defaults")
    parser.add_argument("--nx", type=int, help="cells per side of the unit square")
    parser.add_argument("--ny", type=int, help="cells in y if different from --nx")
    parser.add_argument("--sub", type=_parse_pair, metavar="NXxNY", help="subdomain grid, e.g. 4x4")
    parser.add_argument("--elem", choices=["p1", "p0"], help="total pressure space")
    parser.add_argument("--primal", choices=["vertex", "vertex-edge"], help="coarse constraint set")
    parser.add_argument("--lambda-pc", choices=["dirichlet", "lumped"], help="multiplier preconditioner")
    parser.add_argument("--pattern", choices=["uniform", "checkerboard"], help="material layout")
    parser.add_argument("--E", type=float, help="Young modulus")
    parser.add_argument("--nu", type=float, help="Poisson ratio")
    parser.add_argument("--alpha", type=float, help="pressure coupling coefficient")
    parser.add_argument("--kappa", type=float, help="permeability")
    parser.add_argument(
        "--black", action="append", default=[], metavar="KEY=VALUE",
        help="checkerboard override for black cells, repeatable",
    )
    parser.add_argument("--bc", choices=["neumann-left", "dirichlet"], help="boundary preset")
    parser.add_argument("--tol", type=float, help="relative residual tolerance")
    parser.add_argument("--max-iter", type=int, help="iteration cap")
    parser.add_argument("--reorthogonalize", action="store_true", help="full reorthogonalization")
    parser.add_argument("--ritz-threshold", type=float, help="spurious mode drop ratio")
    parser.add_argument("--oracle", choices=["auto", "on", "off"], help="direct solve comparison")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {
        "nx": args.nx,
        "ny": args.ny,
        "subdomains": args.sub,
        "total_pressure": args.elem,
        "primal": args.primal,
        "multiplier_pc": args.lambda_pc,
        "pattern": args.pattern,
        "E": args.E,
        "nu": args.nu,
        "alpha": args.alpha,
        "kappa": args.kappa,
        "bc": args.bc,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "ritz_drop_threshold": args.ritz_threshold,
        "oracle": args.oracle,
    }
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if args.reorthogonalize:
        cfg = replace(cfg, reorthogonalize=True)
    if args.black:
        cfg = replace(cfg, black={**cfg.black, **_parse_black(args.black)})
    cfg.validate()
    return cfg


def _write_results(results, args: argparse.Namespace) -> None:
    if not args.out:
        return
    if args.format == "json":
        write_json(results, args.out)
    else:
        write_csv(results, args.out)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_case(cfg)
    row = result.row()
    summary = (
        f"nx={cfg.nx} sub={cfg.subdomains[0]}x{cfg.subdomains[1]} "
        f"elem={cfg.total_pressure} primal={cfg.primal} "
        f"iter={result.iterations} eig_min={row['eig_min']} eig_max={row['eig_max']}"
    )
    if result.oracle_err is not None:
        summary += f" oracle_err={max(result.oracle_err):.3e}"
    if not result.converged:
        summary += " (NOT CONVERGED)"
    print(summary)
    _write_results([result], args)
    if args.residuals:
        write_residual_history(result, args.residuals)
    return 0 if result.converged else 1


def _print_points(results) -> int:
    """One line per point, failed ones included; the exit code of the first
    failed or unconverged point."""
    codes = []
    for res in results:
        row = res.row()
        point = (f"nx={row['nx']} sub={row['sub_x']}x{row['sub_y']} "
                 f"E={row['E']} nu={row['nu']} alpha={row['alpha']} kappa={row['kappa']}")
        if res.error is not None:
            print(f"{point} failed")
            codes.append(_report(res.error))
        else:
            line = f"{point} iter={row['iter']} eig_min={row['eig_min']} eig_max={row['eig_max']}"
            print(line if res.converged else f"{line} (NOT CONVERGED)")
            codes.append(0 if res.converged else 1)
    return next((c for c in codes if c), 0)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Every point's row, failed ones included; the exit code is that of
    the first failed or unconverged point."""
    cfg = _config_from_args(args)
    axes = dict(_parse_axis(a) for a in args.axis)
    results = run_sweep(cfg, axes, mode="zip" if args.zip else "product")
    code = _print_points(results)
    _write_results(results, args)
    return code


def _cmd_fit(args: argparse.Namespace) -> int:
    """Each ratio run as a sweep point, and the fit over the converged ones;
    the exit code is that of the first failed or unconverged ratio."""
    cfg = _config_from_args(args)
    gx, gy = cfg.subdomains
    ratios = [_parse_value("ratios", tok, int) for tok in args.ratios.split(",")]
    results = run_sweep(cfg, {"nx": [r * gx for r in ratios], "ny": [r * gy for r in ratios]}, mode="zip")
    code = _print_points(results)
    x = [float(r) for r, res in zip(ratios, results) if res.converged]
    y = [res.eig_max for res in results if res.converged]
    if code and len(x) < 2:
        print(f"no fit: {len(x)} of {len(ratios)} ratios converged")
        return code
    fit = fit_polylog(x, y)
    print(
        f"eig_max ~ {fit['C1']:.4f} + {fit['C2']:.4f} (1 + log(H/h))^2   R2={fit['R2']:.4f}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(fit, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biot-ddp",
        description="Dual-primal interface solver for the three-field Biot problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configuration")
    _add_config_args(p_run)
    p_run.add_argument("--out", help="write the result table here")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.add_argument("--residuals", help="write the residual history CSV here")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one or two axes")
    _add_config_args(p_sweep)
    p_sweep.add_argument(
        "--axis", action="append", required=True, metavar="NAME=V1,V2,...",
        help="sweep axis, repeatable up to twice; prefix black. for checkerboard overrides",
    )
    p_sweep.add_argument("--zip", action="store_true", help="pair axes instead of crossing them")
    p_sweep.add_argument("--out", help="write the result table here")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit spectrum growth against the size ratio")
    _add_config_args(p_fit)
    p_fit.add_argument(
        "--ratios", default="2,4,8,16", metavar="R1,R2,...",
        help="cells per subdomain side for each run (default 2,4,8,16)",
    )
    p_fit.add_argument("--out", help="write the fit JSON here")
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def _report(exc: Exception) -> int:
    """Print one of ``RUN_ERRORS`` as one line on stderr; its exit code."""
    if isinstance(exc, SpdViolationError):
        print(f"error: no converged solution: {exc}", file=sys.stderr)
        return 1
    if isinstance(exc, InternalError):
        print(f"error: internal inconsistency, please report: {exc}", file=sys.stderr)
        return 3
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RUN_ERRORS as exc:
        return _report(exc)


if __name__ == "__main__":
    raise SystemExit(main())
