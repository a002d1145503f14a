#!/usr/bin/env python3
"""State-averaged memory fidelity under a jittered pulse train.

Runs the preset ensemble (200 trajectories, every pulse parameter drawn
fresh each period) and a free-decay reference on the same grid, then writes
the mean curve with its standard error.  Imperfect, noisy control retains
almost all of the protection of the ideal train.
"""

import argparse
import dataclasses
import json
import pathlib

from pulseguard import (
    ExperimentConfig,
    SignalFamily,
    effective_frequency,
    qsd_fidelity,
    solve_kernel_riccati,
    run_experiment,
    ResultTable,
    emit_csv,
    emit_plot,
)

PRESET = pathlib.Path(__file__).resolve().parents[1] / "configs" / "fig2.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--config", type=pathlib.Path, default=PRESET)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    config = ExperimentConfig.from_dict(json.loads(args.config.read_text()))
    table = run_experiment(dataclasses.replace(config, workers=args.workers))

    # Free-decay reference averaged over the same state grid.
    grid = config.grid
    free = SignalFamily(kind="none").sample(0, grid)
    freq = effective_frequency(free, config.omega)
    kernel = solve_kernel_riccati(freq, config.bath, grid)
    free_mean = qsd_fidelity(config.states, kernel).values

    merged = ResultTable(
        t=table.t,
        columns=table.columns + ("free",),
        data={**table.data, "free": free_mean},
        metadata=table.metadata,
    )
    csv_path = args.out_dir / "fig2.csv"
    svg_path = args.out_dir / "fig2.svg"
    emit_csv(merged, csv_path)
    emit_plot(merged, svg_path, title="Memory fidelity, jittered pulse train")
    print(f"controlled mean F(t_max) = {table.data['mean'][-1]:.6f}")
    print(f"free mean F(t_max)       = {free_mean[-1]:.6f}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
