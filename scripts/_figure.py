"""What the reproduce_figN.py scripts share: parse, build, run, write, print.

A script hands `main` its parser, `curves(args)`, the configs of its curves
by name (raw dicts, or configs already built), and `figure(tables)`, its
ResultTable from the curves' tables and its headline lines.  Every config
is built before any curve runs, and the out-dir is made only after every
curve ran, so a bad config or a failed curve writes nothing.  A run reports
through `pulseguard.cli.reporting`, as `pulseguard run` does: warnings as
`warning: <message>`, and exit 2 for a bad config, 3 for a numerical
failure, 4 when the files cannot be written.
"""

import argparse
import pathlib
import sys

from pulseguard import ExperimentConfig, emit_csv, emit_plot, run_experiment
from pulseguard.cli import reporting

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def parser(doc: str) -> argparse.ArgumentParser:
    """A script's parser, with the `--out-dir` every script takes."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    return parser


def _run(name: str, title: str, args, curves, figure) -> None:
    configs = {curve: config if isinstance(config, ExperimentConfig)
               else ExperimentConfig.from_dict(config)
               for curve, config in curves(args).items()}
    tables = {curve: run_experiment(config) for curve, config in configs.items()}
    table, lines = figure(tables)
    csv_path, svg_path = (args.out_dir / f"{name}.{suffix}" for suffix in ("csv", "svg"))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(table, csv_path)
    emit_plot(table, svg_path, title=title)
    print("\n".join(lines))
    print(f"wrote {csv_path} and {svg_path}")


def main(name: str, title: str, parser: argparse.ArgumentParser, curves, figure) -> None:
    """Run the figure `name` and write `<name>.csv` and `<name>.svg`, plotted under `title`."""
    sys.exit(reporting(_run, name, title, parser.parse_args(), curves, figure))
