"""Command-line entry point.

The one positional argument names the scenario: gap, sweep, mixing,
verify, theta, classical; every option applies to each.  Exit codes:
0 success, 1 invariant failure, 2 config error, 3 resource guard,
4 numerical error (a gap double precision cannot resolve).
A sweep keeps its unresolved points: it writes the whole report, prints one
``numerical error:`` line per such point and exits 4.
"""

import argparse
import locale  # noqa: F401  argparse's gettext imports it at the first parse: keep that in set-up
import sys

from .harness import (
    DEFAULT_CONFIG,
    ConfigError,
    ResourceGuardError,
    SCENARIOS,
    emit,
    parse_config,
    run_scenario,
    validate_config,
)
from .spectral import UnresolvedGapError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qrex",
        description="Quantum replica-exchange Gibbs samplers: gaps, mixing times, "
                    "and slow-mixing diagnostics by exact diagonalization.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="the scenario to run")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output file path (default: stdout)")
    parser.add_argument("--format", default=None, choices=["csv", "json"],
                        help="output format (default: config value)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--max-dim", type=int, default=None,
                        help="superoperator dimension guard (default 4096)")
    parser.add_argument("--parallel", type=int, default=1,
                        help="worker processes for sweep points")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = parse_config(args.config)
        else:
            config = validate_config(dict(DEFAULT_CONFIG))
        overrides = config.to_dict()
        overrides["scenario"] = args.scenario
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.max_dim is not None:
            overrides["max_dim"] = args.max_dim
        if args.format is not None:
            overrides["output"] = {**overrides["output"], "format": args.format}
        if args.out is not None:
            overrides["output"] = {**overrides["output"], "path": args.out}
        config = validate_config(overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(config, parallel=max(1, args.parallel))
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnresolvedGapError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4

    text = emit(report, config.output["format"], config.output["path"])
    if config.output["path"] is None:
        sys.stdout.write(text)
    if args.scenario == "sweep":
        unresolved = [rec for rec in report.records if rec["status"] != "ok"]
        for rec in unresolved:
            print(f"numerical error: {rec['error']} (J = {rec['J']}, beta = {rec['beta']})",
                  file=sys.stderr)
        if unresolved:
            return 4
    if args.scenario == "verify":
        for rec in report.records:
            status = "PASS" if rec["passed"] else "FAIL"
            print(f"[{status}] {rec['check']}: {rec['detail']}", file=sys.stderr)
        if not report.summary.get("passed", False):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
