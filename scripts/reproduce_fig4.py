#!/usr/bin/env python3
"""Shot noise restoring adiabaticity in a fast two-level sweep.

Three passages through the same linear sweep: a slow one (T = 50) that is
adiabatic on its own, a fast one (T = 5) that is not, and the same fast one
with Poissonian shot noise added to the sweep rate.  The noise recovers a
near-unit ground-state population at one tenth the passage time.
"""

import json

import numpy as np

from pulseguard import ResultTable

import _figure

PRESET = _figure.CONFIGS / "fig4.json"
T_SLOW = 50.0
SLOW_STEPS = 10000


def curves(args) -> dict:
    driven = {**json.loads(PRESET.read_text()), "n_traj": args.n_traj, "workers": args.workers}
    # the reference sweeps run without control; the slow one must drop the shot
    # noise before it is loaded, or its coarser grid draws the unresolved-rate warning
    fast = {**driven, "signal": {"family": "none"}}
    slow = {**fast, "grid": {"t_max": T_SLOW, "n_steps": SLOW_STEPS},
            "sweep": {**driven["sweep"], "passage_time": T_SLOW}}
    return {"slow": slow, "fast": fast, "driven": driven}


def figure(tables) -> tuple:
    sweep, shot = (tables["driven"].metadata["config"][key] for key in ("sweep", "signal"))
    # mean |psi_0|: the first column, of one sweep or of the ensemble
    columns = {name: table.data[table.columns[0]] for name, table in tables.items()}
    # slow-passage curve resampled onto the fast grid's fractional time s = t / T
    t_fast = sweep["passage_time"]
    t = tables["fast"].t
    columns["slow"] = np.interp(t / t_fast, tables["slow"].t / T_SLOW, columns["slow"])
    metadata = {"experiment": "fig4", "base_freq": sweep["base_freq"], "t_slow": T_SLOW,
                "t_fast": t_fast, "strength": shot["strength"], "rate": shot["rate"]}
    return ResultTable(t, columns, metadata), [
        f"slow  (T = {T_SLOW:g}): |psi_0(T)| = {tables['slow'].data['psi0'][-1]:.6f}",
        f"fast  (T = {t_fast:g}): |psi_0(T)| = {columns['fast'][-1]:.6f}",
        f"driven (T = {t_fast:g}): |psi_0(T)| = {columns['driven'][-1]:.6f}",
    ]


if __name__ == "__main__":
    parser = _figure.parser(__doc__)
    parser.add_argument("--n-traj", type=int, default=json.loads(PRESET.read_text())["n_traj"])
    parser.add_argument("--workers", type=int, default=1)
    _figure.main("fig4", "Ground-state amplitude through the sweep", parser, curves, figure)
