"""Command-line entry point.

    weilfield <command> --config cfg.json [--out DIR] [--seed N] [--tol X]

There is one command per entry of config.EXPERIMENTS, its name with "-"
for "_" (oracle-pj).  --seed overrides the config's seed and --tol its
experiment's first tolerance.  Exit codes: 0 all verdicts pass, 1 any
verdict fails, 2 usage or validation error or arrays too large to allocate.
"""

from __future__ import annotations

import argparse
import sys

from .. import dynamics as dyn
from .. import lattice as lt
from .config import EXPERIMENTS, ConfigError, ExperimentConfig, _shown
from .experiments import run
from .oracle import OracleError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilfield",
        description="numerical experiments for nilpotent-valued lattice field theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in EXPERIMENTS.items():
        p = sub.add_parser(name.replace("_", "-"), help=spec.help)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory for CSV/report")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--tol", type=float, default=None,
                       help="override the experiment's first tolerance")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    try:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment != experiment:
            raise ConfigError(
                f"config describes experiment {_shown(config.experiment)}, "
                f"but the {_shown(args.command)} command was invoked"
            )
        if args.seed is not None or args.tol is not None:
            config = config.with_overrides(seed=args.seed, tol=args.tol)
        report = run(config, outdir=args.out)
    except (ConfigError, OracleError, dyn.SolverError, lt.LatticeError,
            OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
