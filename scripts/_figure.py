"""What the reproduce_figN.py scripts share: parse, build, run, write, print.

A script hands `main` its parser, `curves(args)`, the configs of its curves
by name (raw dicts, or configs already built), and `figure(tables)`, its
ResultTable from the curves' tables and its headline lines.  Every config
is built before any curve runs, and the out-dir is made only after every
curve ran, so a bad config or a failed curve writes nothing.  The exits are those of
`pulseguard run`: 2 for a bad config (through `parser.error`), 3 for a
numerical failure, 4 when the files cannot be written.
"""

import argparse
import pathlib
import sys

from pulseguard import (ConfigError, ExperimentConfig, NumericOverflowError, emit_csv,
                        emit_plot, run_experiment)
from pulseguard.cli import EXIT_NUMERIC, EXIT_WRITE

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def parser(doc: str) -> argparse.ArgumentParser:
    """A script's parser, with the `--out-dir` every script takes."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    return parser


def main(name: str, title: str, parser: argparse.ArgumentParser, curves, figure) -> None:
    """Run the figure `name` and write `<name>.csv` and `<name>.svg`, plotted under `title`."""
    args = parser.parse_args()
    try:
        configs = {curve: config if isinstance(config, ExperimentConfig)
                   else ExperimentConfig.from_dict(config)
                   for curve, config in curves(args).items()}
    except ConfigError as exc:
        parser.error(str(exc))
    try:
        tables = {curve: run_experiment(config) for curve, config in configs.items()}
    except NumericOverflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERIC)
    table, lines = figure(tables)
    csv_path, svg_path = (args.out_dir / f"{name}.{suffix}" for suffix in ("csv", "svg"))
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(table, csv_path)
        emit_plot(table, svg_path, title=title)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_WRITE)
    print("\n".join(lines))
    print(f"wrote {csv_path} and {svg_path}")
