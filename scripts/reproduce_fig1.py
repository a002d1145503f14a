#!/usr/bin/env python3
"""Memory fidelity of a driven qubit under a regular pulse train.

Solves the exact kernel dynamics for the balanced initial state (p = 1/2)
with and without control, at three duty ratios of the same pulse area, and
overlays the second-order (Born) prediction for the controlled case.  The
revival structure and the near-insensitivity to duty ratio are the headline
features; the Born curve tracks the exact one closely at this coupling.
"""

import argparse
import pathlib

import numpy as np

from pulseguard import (
    BathSpec,
    SignalFamily,
    PulseTrainSpec,
    TimeGrid,
    effective_frequency,
    me2_fidelity,
    qsd_fidelity,
    solve_kernel_riccati,
    ResultTable,
    emit_csv,
    emit_plot,
)

OMEGA = 1.0
AREA = 0.2
PERIOD = 0.02
DUTIES = (0.25, 0.5, 0.75)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--n-steps", type=int, default=10000)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    grid = TimeGrid(t_max=args.t_max, n_steps=args.n_steps)
    bath = BathSpec(coupling=1.0, cutoff=0.5)
    states = (0.5,)

    columns = {}
    free = SignalFamily(kind="none").sample(0, grid)
    kernel = solve_kernel_riccati(effective_frequency(free, OMEGA), bath, grid)
    columns["free"] = qsd_fidelity(states, kernel).values

    for duty in DUTIES:
        pulse = PulseTrainSpec(period=PERIOD, duration=duty * PERIOD, area=AREA)
        signal = SignalFamily(kind="regular", pulse=pulse).sample(0, grid)
        freq = effective_frequency(signal, OMEGA)
        kernel = solve_kernel_riccati(freq, bath, grid)
        columns[f"qsd duty {duty:g}"] = qsd_fidelity(states, kernel).values
        if duty == 0.5:
            columns["me2 duty 0.5"] = me2_fidelity(states, freq, bath, grid).values

    table = ResultTable(
        t=grid.times,
        columns=tuple(columns),
        data=columns,
        metadata={"experiment": "fig1", "omega": OMEGA, "area": AREA, "period": PERIOD},
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
