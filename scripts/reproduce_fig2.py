#!/usr/bin/env python3
"""State-averaged memory fidelity under a jittered pulse train.

Runs the preset ensemble (200 trajectories, every pulse parameter drawn
fresh each period) and a free-decay reference on the same grid, then writes
the mean curve with its standard error.  Imperfect, noisy control retains
almost all of the protection of the ideal train.  The reference is the
preset run as memory-qsd without control.
"""

import argparse
import dataclasses
import pathlib

from pulseguard import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    emit_plot,
    load_config,
    run_experiment,
)

PRESET = pathlib.Path(__file__).resolve().parents[1] / "configs" / "fig2.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--config", type=pathlib.Path, default=PRESET)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    try:
        config = dataclasses.replace(load_config(args.config), workers=args.workers)
        if config.kind != "memory-ensemble":
            parser.error(f"{args.config}: kind = {config.kind!r}, but this script runs a "
                         "'memory-ensemble' config")
        # free decay averaged over the same states: one memory-qsd run without control
        free = {**config.resolved(), "kind": "memory-qsd", "signal": {"family": "none"}}
        free.pop("n_traj", None)
        free_config = ExperimentConfig.from_dict(free)
    except ConfigError as exc:
        parser.error(str(exc))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    table = run_experiment(config)
    free_mean = run_experiment(free_config).data["qsd"]

    merged = ResultTable(
        t=table.t,
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
