"""Command-line harness.

One subcommand per experiment plus ``validate``.  Flags override values
from an optional flat JSON config file; everything ends up echoed in the
output metadata.  Exit status is 0 on success, 2 on configuration errors,
a window too small or too large to draw from among them.

Examples
--------
voidnet void-prob --law nearest --ratio-grid 0.5,1,2,4,8 --out fig2.csv
voidnet coverage --law nearest --sigma2-db 4 --beta 0.8 --reps 400
voidnet conservation-check --mark-law lognormal:0.0,0.25 --reps 200
voidnet validate --law unit --m 0.4 --alpha 4
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .coverage import MODELS
from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, run, validate


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _side(text: str) -> float | str:
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file; flags override its values")
    parser.add_argument("--lambda-b", type=float, dest="lambda_b",
                        help="stations per km^2; the ratio is then lambda_u / lambda_b, "
                             "so it may not be combined with --ratio-grid")
    parser.add_argument("--lambda-u", type=float, dest="lambda_u", help="users per km^2, > 0 (default 370)")
    parser.add_argument(
        "--ratio-grid",
        dest="ratio_grid",
        type=_float_list,
        help="comma-separated user/station intensity ratios, e.g. 0.5,1,2,4,8; void-prob "
             "and coverage draw each replication once, at the largest ratio, and reach "
             "smaller ones by thinning its users; cell-pmf and remark2 take a one-entry grid",
    )
    parser.add_argument("--alpha", type=float, help="path-loss exponent (> 2, default 4)")
    parser.add_argument("--m", type=float, help="Nakagami shape (default 1 = Rayleigh power)")
    parser.add_argument("--mu", type=float, help="log-normal shadowing mean (natural-log units)")
    parser.add_argument(
        "--sigma2-ln", type=float, dest="sigma2_ln", help="shadowing variance, natural-log units"
    )
    parser.add_argument(
        "--sigma-db", type=float, dest="sigma_db", help="shadowing standard deviation in dB"
    )
    parser.add_argument(
        "--sigma2-db", type=float, dest="sigma2_db", help="shadowing variance in dB^2"
    )
    parser.add_argument(
        "--law", help="association weighting: nearest | unit | lognormal:MU,SIGMA2"
    )
    parser.add_argument("--beta", type=float, help="SIR threshold (coverage)")
    parser.add_argument("--model", help=f"coverage interference model: {' | '.join(MODELS)}; "
                                         "every model is drawn on each replication, and this "
                                         "keeps that model's rows (default: all three)")
    parser.add_argument("--reps", type=int,
                        help="replications / suites, run once; this turns the half-width "
                             "rule off (default: the experiment's own count, or auto)")
    parser.add_argument("--sets", type=int, help="parameter sets for bounds-check (default 50)")
    parser.add_argument("--side", type=_side,
                        help="window side in km, or 'auto' (at least 500 expected stations "
                             "and users); a void-prob or coverage grid uses it at its "
                             "largest ratio, and void-prob rows report the equivalent "
                             "side at their own station intensity; validate warns when "
                             "a drawn window expects fewer than 500 stations or users")
    parser.add_argument("--seed", type=int, help="master seed (default 1)")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", dest="fmt", help="output format: csv | json (default csv)")
    parser.add_argument("--half-width", type=float, dest="half_width",
                        help="target 95%% CI half-width for auto reps; void-prob (at "
                             "every grid ratio, on shared replications) and cell-pmf (on "
                             "its n = 0 bin) add reps until it is met (default 0.005); "
                             "ignored where --reps is given, and like any ignored option "
                             "set away from its default it draws a warning")
    parser.add_argument("--mark-law", dest="mark_law",
                        help="conservation-check marks: deterministic:T | lognormal:MU,S2 | channel")
    parser.add_argument("--grid", type=int,
                        help="quadrat grid of the CSR tests, read by conservation-check "
                             "(default 5)")
    parser.add_argument("--n-envelope", type=int, dest="n_envelope",
                        help="envelope simulations, read by remark2 (default 99)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voidnet",
        description="Void cells and random cell association in Poisson cellular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("validate",):
        p = sub.add_parser(name, help=f"run the {name} experiment" if name != "validate"
                           else "check a configuration and print diagnostics")
        _add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"config file {args.config!r} must be readable JSON: {exc}"])
        if not isinstance(values, dict):
            raise ConfigError([f"config file {args.config!r} must be a JSON object, "
                               f"got {type(values).__name__}"])
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    experiment = args.command if args.command != "validate" else values.get("experiment", "void-prob")
    values["experiment"] = experiment
    return ExperimentConfig.from_mapping(values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 2

    if args.command == "validate":
        diags = validate(config)
        for d in diags:
            print(d)
        if any(not d.startswith("warning:") for d in diags):
            return 2
        if not diags:
            print("configuration ok")
        return 0

    try:
        run(config)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
