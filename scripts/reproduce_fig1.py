#!/usr/bin/env python3
"""Memory fidelity of a driven qubit under a regular pulse train.

Solves the exact kernel dynamics for the balanced initial state (p = 1/2)
with and without control, at three duty ratios of the same pulse area, and
overlays the second-order (Born) prediction for the controlled case.  The
revival structure and the near-insensitivity to duty ratio are the headline
features; the Born curve tracks the exact one closely at this coupling.
Every curve is the fig1 preset with its signal or kind overridden.
"""

import json

from pulseguard import ResultTable

import _figure

PRESET = _figure.CONFIGS / "fig1.json"
DUTIES = (0.25, 0.5, 0.75)


def curves(args) -> dict:
    preset = json.loads(PRESET.read_text())
    preset["grid"] = {"t_max": args.t_max, "n_steps": args.n_steps}
    signal = preset["signal"]
    runs = {"free": {**preset, "signal": {"family": "none"}}}
    for duty in DUTIES:
        pulse = {**signal, "duration": duty * signal["period"]}
        runs[f"qsd duty {duty:g}"] = {**preset, "signal": pulse}
        if duty == 0.5:
            runs["me2 duty 0.5"] = {**preset, "kind": "memory-me2", "signal": pulse}
    return runs


def figure(tables) -> tuple:
    config = tables["qsd duty 0.5"].metadata["config"]
    # a single-trajectory run has one column, the qsd or me2 fidelity
    columns = {name: table.data[table.columns[0]] for name, table in tables.items()}
    metadata = {"experiment": "fig1", "omega": config["omega"], "area": config["signal"]["area"],
                "period": config["signal"]["period"]}
    return (ResultTable(tables["free"].t, columns, metadata),
            [f"{name}: F(t_max) = {values[-1]:.6f}" for name, values in columns.items()])


if __name__ == "__main__":
    parser = _figure.parser(__doc__)
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--n-steps", type=int, default=10000)
    _figure.main("fig1", "Memory fidelity, regular pulse train", parser, curves, figure)
