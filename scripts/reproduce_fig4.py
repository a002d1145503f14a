#!/usr/bin/env python3
"""Shot noise restoring adiabaticity in a fast two-level sweep.

Three passages through the same linear sweep: a slow one (T = 50) that is
adiabatic on its own, a fast one (T = 5) that is not, and the same fast one
with Poissonian shot noise added to the sweep rate.  The noise recovers a
near-unit ground-state population at one tenth the passage time.
"""

import argparse
import json
import pathlib

import numpy as np

from pulseguard import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    emit_plot,
    run_experiment,
)

PRESET = pathlib.Path(__file__).resolve().parents[1] / "configs" / "fig4.json"
T_SLOW = 50.0
SLOW_STEPS = 10000


def main() -> None:
    driven = json.loads(PRESET.read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--n-traj", type=int, default=driven["n_traj"])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    driven.update(n_traj=args.n_traj, workers=args.workers)
    # the reference sweeps run without control; the slow one must drop the shot
    # noise before it is loaded, or its coarser grid draws the unresolved-rate warning
    fast = {**driven, "signal": {"family": "none"}}
    slow = {**fast, "grid": {"t_max": T_SLOW, "n_steps": SLOW_STEPS},
            "sweep": {**driven["sweep"], "passage_time": T_SLOW}}
    runs = {"slow": slow, "fast": fast, "driven": driven}
    try:
        configs = {name: ExperimentConfig.from_dict(run) for name, run in runs.items()}
    except ConfigError as exc:
        parser.error(str(exc))
    args.out_dir.mkdir(parents=True, exist_ok=True)

    # mean |psi_0|: the first column, of one sweep or of the ensemble
    tables = {name: run_experiment(config) for name, config in configs.items()}
    columns = {name: table.data[table.columns[0]] for name, table in tables.items()}
    # slow-passage curve resampled onto the fast grid's fractional time s = t / T
    t_fast = driven["sweep"]["passage_time"]
    t = tables["fast"].t
    columns["slow"] = np.interp(t / t_fast, tables["slow"].t / T_SLOW, columns["slow"])

    shot = driven["signal"]
    table = ResultTable(
        t=t,
        data=columns,
        metadata={
            "experiment": "fig4",
            "base_freq": driven["sweep"]["base_freq"],
            "t_slow": T_SLOW,
            "t_fast": t_fast,
            "strength": shot["strength"],
            "rate": shot["rate"],
        },
    )
    csv_path = args.out_dir / "fig4.csv"
    svg_path = args.out_dir / "fig4.svg"
    emit_csv(table, csv_path)
    emit_plot(table, svg_path, title="Ground-state amplitude through the sweep")
    print(f"slow  (T = {T_SLOW:g}): |psi_0(T)| = {tables['slow'].data['psi0'][-1]:.6f}")
    print(f"fast  (T = {t_fast:g}): |psi_0(T)| = {columns['fast'][-1]:.6f}")
    print(f"driven (T = {t_fast:g}): |psi_0(T)| = {columns['driven'][-1]:.6f}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
