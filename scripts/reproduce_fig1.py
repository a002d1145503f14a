#!/usr/bin/env python3
"""Memory fidelity of a driven qubit under a regular pulse train.

Solves the exact kernel dynamics for the balanced initial state (p = 1/2)
with and without control, at three duty ratios of the same pulse area, and
overlays the second-order (Born) prediction for the controlled case.  The
revival structure and the near-insensitivity to duty ratio are the headline
features; the Born curve tracks the exact one closely at this coupling.
Every curve is the fig1 preset with its signal or kind overridden.
"""

import argparse
import json
import pathlib

from pulseguard import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    emit_plot,
    run_experiment,
)

PRESET = pathlib.Path(__file__).resolve().parents[1] / "configs" / "fig1.json"
DUTIES = (0.25, 0.5, 0.75)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--n-steps", type=int, default=10000)
    args = parser.parse_args()

    preset = json.loads(PRESET.read_text())
    preset["grid"] = {"t_max": args.t_max, "n_steps": args.n_steps}
    signal = preset["signal"]
    runs = {"free": {**preset, "signal": {"family": "none"}}}
    for duty in DUTIES:
        pulse = {**signal, "duration": duty * signal["period"]}
        runs[f"qsd duty {duty:g}"] = {**preset, "signal": pulse}
        if duty == 0.5:
            runs["me2 duty 0.5"] = {**preset, "kind": "memory-me2", "signal": pulse}
    try:
        configs = {name: ExperimentConfig.from_dict(run) for name, run in runs.items()}
    except ConfigError as exc:
        parser.error(str(exc))
    args.out_dir.mkdir(parents=True, exist_ok=True)

    # a single-trajectory run has one column, the qsd or me2 fidelity
    columns = {}
    for name, config in configs.items():
        table = run_experiment(config)
        columns[name] = table.data[table.columns[0]]
    table = ResultTable(
        t=table.t,
        columns=tuple(columns),
        data=columns,
        metadata={"experiment": "fig1", "omega": preset["omega"], "area": signal["area"],
                  "period": signal["period"]},
    )
    csv_path = args.out_dir / "fig1.csv"
    svg_path = args.out_dir / "fig1.svg"
    emit_csv(table, csv_path)
    emit_plot(table, svg_path, title="Memory fidelity, regular pulse train")
    for name in columns:
        print(f"{name}: F(t_max) = {columns[name][-1]:.6f}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
