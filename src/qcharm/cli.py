"""Command-line surface: curve constants, explicit bounds, scenario
verification, and the scenario catalog.

Exit codes: 0 all checks pass; 1 an inequality check failed; 2
configuration error; 3 numerical non-convergence or NaN in a report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import report as report_mod
from .bounds import BoundInputs, lipschitz_bound, mori_constant
from .curves import (
    build_curve,
    circle,
    compute_curve_constants,
    ellipse,
)
from .errors import QcharmError, RefinementError
from .scenarios import make_scenario, scenario_catalog, verify

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_report(payload: dict, kind: str, out: str | None, fmt: str, csv_rows: list[dict]):
    """Sanitize the payload once and check it against its schema, then write it as JSON or CSV rows."""
    clean = report_mod.sanitize(payload)
    report_mod.validate_report(clean, kind)
    text = report_mod.dumps(clean) if fmt == "json" else report_mod.dumps_csv(csv_rows)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _curve_from_args(args) -> tuple:
    if args.curve == "circle":
        gen = circle(args.radius)
        desc = {"kind": "circle", "radius": args.radius}
    elif args.curve == "ellipse":
        gen = ellipse(args.a, args.b)
        desc = {"kind": "ellipse", "a": args.a, "b": args.b}
    elif args.curve == "csv":
        if not args.samples:
            raise QcharmError("--curve csv requires --samples PATH")
        try:
            data = np.loadtxt(args.samples, delimiter=",")
        except (OSError, ValueError) as exc:
            raise QcharmError(f"unreadable samples {args.samples!r}: {exc}")
        if data.ndim != 2 or data.shape[1] < 3:
            raise QcharmError("sample CSV needs columns t, x_1, ..., x_n")
        gen = (data[:, 0], data[:, 1:])
        desc = {"kind": "csv", "path": args.samples, "rows": int(data.shape[0])}
    else:
        raise QcharmError(f"unknown curve {args.curve!r}")
    return gen, desc


def cmd_constants(args) -> int:
    gen, desc = _curve_from_args(args)
    curve = build_curve(gen)
    constants = compute_curve_constants(curve, mu=args.mu)
    payload = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "command": "constants",
        "curve": desc | {"dimension": curve.dim, "degree": curve.poly.degree, "tail": curve.fit_tail},
        "constants": asdict(constants),
    }
    flat = {k: v for k, v in payload["constants"].items() if k != "converged"}
    flags = {f"converged_{k}": v for k, v in constants.converged.items()}
    rows = [payload["curve"] | flat | flags]
    _write_report(payload, "constants", args.out, args.format, rows)
    return EXIT_OK if constants.all_converged() else EXIT_NUMERIC


def cmd_bound(args) -> int:
    inputs = BoundInputs(
        K=args.K,
        mu=args.mu,
        upsilon=args.upsilon,
        lam=args.lam,
        c_gamma=args.c_gamma,
        length=args.length,
        area=args.area,
    )
    result = lipschitz_bound(inputs)
    growth = mori_constant(inputs.K, inputs.lam, inputs.upsilon, inputs.effective_area, variant=args.variant)
    checks = [
        {
            "name": "alpha_in_range",
            "lhs": result.alpha,
            "rhs": 1.0,
            "margin": 1.0 - result.alpha,
            "passed": 0.0 < result.alpha <= 1.0,
        },
        {
            "name": "bound_positive",
            "lhs": 0.0,
            "rhs": result.log_value,
            "margin": result.log_value,
            "passed": inputs.c_gamma == 0.0 or result.log_value > float("-inf"),
        },
    ]
    payload = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "command": "bound",
        "inputs": {
            "K": inputs.K,
            "mu": inputs.mu,
            "upsilon": inputs.upsilon,
            "lambda": inputs.lam,
            "c_gamma": inputs.c_gamma,
            "length": inputs.length,
            "area": inputs.effective_area,
        },
        "alpha": result.alpha,
        "mori_constant": growth,
        "mori_variant": args.variant,
        "log_L": result.log_value,
        "L": result.value,
        "checks": checks,
    }
    rows = [payload["inputs"] | {"alpha": result.alpha, "mori_constant": growth, "log_L": payload["log_L"], "L": result.value}]
    _write_report(payload, "bound", args.out, args.format, rows)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_VIOLATION


def _scenario_from_args(args):
    kwargs = {}
    if args.scenario == "affine":
        kwargs["c"] = args.c
    elif args.scenario in ("conformal_poly", "harmonic_graph"):
        kwargs["eps"] = args.epsilon
        kwargs["m"] = args.order
    elif args.scenario == "fourier":
        if not args.coeffs:
            raise QcharmError("fourier scenario requires --coeffs FILE.json")
        try:
            spec = json.loads(Path(args.coeffs).read_text())
            kwargs["cos_coeffs"] = spec["cos_coeffs"]
            kwargs["sin_coeffs"] = spec["sin_coeffs"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise QcharmError(f"unreadable coefficients {args.coeffs!r}: {type(exc).__name__}: {exc}")
    return make_scenario(args.scenario, **kwargs)


def cmd_verify(args) -> int:
    rep = verify(_scenario_from_args(args), mu=args.mu)
    checks = [asdict(r) for r in rep.checks]
    payload = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "command": "verify",
        "scenario": rep.scenario,
        "params": rep.params,
        "constants": asdict(rep.constants),
        "area": rep.area,
        "area_rule": rep.area_rule,
        "upsilon": rep.upsilon,
        "dilatation": {"exact": rep.k_exact, "estimate": rep.k_estimate},
        "sup_gradient": {
            "extrapolated": rep.sup_grad_extrapolated,
            "exact": rep.sup_grad_exact,
        },
        "alpha": rep.alpha,
        "mori_constant": rep.mori_growth,
        "log_L": rep.bound.log_value,
        "L": rep.bound.value,
        "series": {"degree": rep.series_degree, "tail": rep.series_tail},
        "checks": checks,
        "worst_margin": rep.worst_margin,
        "all_passed": rep.all_passed,
    }
    _write_report(payload, "verify", args.out, args.format, checks)
    return EXIT_OK if rep.all_passed else EXIT_VIOLATION


def cmd_scenarios(args) -> int:
    payload = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "command": "scenarios",
        "catalog": scenario_catalog(),
    }
    _write_report(payload, "scenarios", args.out, args.format, payload["catalog"])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it: parsing reads it
    and changes nothing in it."""
    # no prefix abbreviations: the flag names _apply_config_file compares are the only ones
    parser = argparse.ArgumentParser(prog="qcharm", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", default=None, help="JSON config file with the same field names")

    p = sub.add_parser("constants", allow_abbrev=False, help="geometric constants of a curve")
    p.add_argument("--curve", choices=("circle", "ellipse", "csv"), default="circle")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.8)
    p.add_argument("--samples", default=None, help="CSV with columns t, x_1..x_n")
    p.add_argument("--mu", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bound", allow_abbrev=False, help="explicit gradient bound from constants")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--upsilon", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--c-gamma", dest="c_gamma", type=float, required=True, help="C_gamma in length^-mu (kappa_max at mu = 1)")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--area", type=float, default=None)
    p.add_argument("--variant", choices=("statement", "proof"), default="statement")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the inequality suite on a scenario")
    p.add_argument("--scenario", choices=[entry["name"] for entry in scenario_catalog()], required=True)
    p.add_argument("--c", type=float, default=0.2, help="affine coefficient")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--order", type=int, default=2, help="harmonic order m")
    p.add_argument("--coeffs", default=None, help="JSON file with cos_coeffs/sin_coeffs")
    p.add_argument("--mu", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scenarios", allow_abbrev=False, help="list the scenario catalog")
    common(p)
    p.set_defaults(func=cmd_scenarios)

    return parser


def _apply_config_file(parser, argv):
    """--config FILE (or --config=FILE) supplies defaults under the same
    names; flags win, whether given as --flag value or --flag=value."""
    given = {arg.partition("=")[0] for arg in argv if arg.startswith("--")}
    if "--config" not in given:
        return argv
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 == len(argv):
            raise QcharmError("--config needs a path")
        path = argv[idx + 1]
    else:
        path = next(arg for arg in argv if arg.startswith("--config=")).partition("=")[2]
    try:
        overrides = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise QcharmError(f"unreadable config {path!r}: {exc}")
    if not isinstance(overrides, dict):
        raise QcharmError("config file must hold a JSON object")
    out = list(argv)
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if flag in given:
            continue  # explicit flags win
        if isinstance(value, bool):
            raise QcharmError(f"boolean config key {key!r} is not a CLI flag")
        out.extend([flag, str(value)])
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except QcharmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (report_mod.NonFiniteError, RefinementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QcharmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
