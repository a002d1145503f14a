"""Command-line entry point.

Two subcommands:

  pulseguard run --config cfg.json --out result.csv [--plot result.svg]
                 [--seed N] [--workers N]
  pulseguard validate --config cfg.json

Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 cannot write
output.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from . import __version__
from .numerics import NumericOverflowError
from .runner import ConfigError, emit_csv, emit_plot, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_WRITE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulseguard",
        description="Qubit memory under fast-signal control: simulate and export.",
    )
    parser.add_argument("--version", action="version", version=f"pulseguard {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write CSV (and optional SVG)")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--plot", default=None, help="optional output SVG path")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--workers", type=int, default=None, help="override worker count")

    val = sub.add_parser("validate", help="check a config file and print its summary")
    val.add_argument("--config", required=True, help="path to a JSON experiment config")
    return parser


def _cmd_run(args) -> int:
    # the overrides go into the one build, so that every rule runs once
    overrides = {name: value for name, value in
                 (("master_seed", args.seed), ("workers", args.workers)) if value is not None}
    config = load_config(args.config, **overrides)
    table = run_experiment(config)
    try:
        emit_csv(table, args.out)
        if args.plot is not None:
            emit_plot(table, args.plot)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE
    print(f"wrote {table.n_rows} rows to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"ok: kind={config.kind} t_max={config.grid.t_max} "
          f"n_steps={config.grid.n_steps} signal={config.signal.kind} "
          f"seed={config.master_seed}")
    return EXIT_OK


def _show_warning(message, *_) -> None:
    """Print a warning as its message, as an error is printed, not as the
    package line that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if args.command == "run":
                return _cmd_run(args)
            return _cmd_validate(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NumericOverflowError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
