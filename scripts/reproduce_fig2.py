#!/usr/bin/env python3
"""State-averaged memory fidelity under a jittered pulse train.

Runs the preset ensemble (200 trajectories, every pulse parameter drawn
fresh each period) and a free-decay reference on the same grid, then writes
the mean curve with its standard error.  Imperfect, noisy control retains
almost all of the protection of the ideal train.  The reference is the
preset run as memory-qsd without control.
"""

import dataclasses
import pathlib

from pulseguard import ConfigError, ResultTable, load_config

import _figure

PRESET = _figure.CONFIGS / "fig2.json"


def curves(args) -> dict:
    config = dataclasses.replace(load_config(args.config), workers=args.workers)
    if config.kind != "memory-ensemble":
        raise ConfigError(f"{args.config}: kind = {config.kind!r}, but this script runs a "
                          "'memory-ensemble' config")
    # free decay averaged over the same states: one memory-qsd run without control
    free = {**config.resolved(), "kind": "memory-qsd", "signal": {"family": "none"}}
    free.pop("n_traj", None)
    return {"controlled": config, "free": free}


def figure(tables) -> tuple:
    table, free_mean = tables["controlled"], tables["free"].data["qsd"]
    merged = ResultTable(t=table.t, data={**table.data, "free": free_mean},
                         metadata=table.metadata)
    return merged, [f"controlled mean F(t_max) = {table.data['mean'][-1]:.6f}",
                    f"free mean F(t_max)       = {free_mean[-1]:.6f}"]


if __name__ == "__main__":
    parser = _figure.parser(__doc__)
    parser.add_argument("--config", type=pathlib.Path, default=PRESET)
    parser.add_argument("--workers", type=int, default=1)
    _figure.main("fig2", "Memory fidelity, jittered pulse train", parser, curves, figure)
