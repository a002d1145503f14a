#!/usr/bin/env python3
"""Shot noise restoring adiabaticity in a fast two-level sweep.

Three passages through the same linear sweep: a slow one (T = 50) that is
adiabatic on its own, a fast one (T = 5) that is not, and the same fast one
with Poissonian shot noise added to the sweep rate.  The noise recovers a
near-unit ground-state population at one tenth the passage time.
"""

import argparse
import pathlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from pulseguard import (
    PassageTrajectory,
    ShotNoiseSpec,
    SignalFamily,
    SweepSpec,
    TimeGrid,
    ensemble_mean,
    solve_psi0,
    ResultTable,
    emit_csv,
    emit_plot,
)

BASE_FREQ = 0.3
T_SLOW = 50.0
T_FAST = 5.0
STRENGTH = 0.1
RATE = 100.0
N_TRAJ = 32


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--n-traj", type=int, default=N_TRAJ)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    fast_grid = TimeGrid(t_max=T_FAST, n_steps=5000)
    slow_grid = TimeGrid(t_max=T_SLOW, n_steps=10000)
    fast_sweep = SweepSpec(passage_time=T_FAST, base_freq=BASE_FREQ)
    slow_sweep = SweepSpec(passage_time=T_SLOW, base_freq=BASE_FREQ)

    slow = solve_psi0(slow_sweep, None, slow_grid)
    fast = solve_psi0(fast_sweep, None, fast_grid)
    family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=STRENGTH, rate=RATE))
    trajectory = PassageTrajectory(fast_sweep, family, 2026, fast_grid)
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        mean, _ = ensemble_mean(trajectory, args.n_traj, pool.map)
    driven = mean[0]  # mean |psi_0|

    # Slow-passage curve resampled onto the fast grid's fractional time s = t / T.
    s_fast = fast_grid.times / T_FAST
    slow_on_fast = np.interp(s_fast, slow_grid.times / T_SLOW, slow.magnitudes)

    columns = {
        "slow": slow_on_fast,
        "fast": fast.magnitudes,
        "driven": driven,
    }
    table = ResultTable(
        t=fast_grid.times,
        columns=tuple(columns),
        data=columns,
        metadata={
            "experiment": "fig4",
            "base_freq": BASE_FREQ,
            "t_slow": T_SLOW,
            "t_fast": T_FAST,
            "strength": STRENGTH,
            "rate": RATE,
        },
    )
    csv_path = args.out_dir / "fig4.csv"
    svg_path = args.out_dir / "fig4.svg"
    emit_csv(table, csv_path)
    emit_plot(table, svg_path, title="Ground-state amplitude through the sweep")
    print(f"slow  (T = {T_SLOW:g}): |psi_0(T)| = {slow.final_magnitude:.6f}")
    print(f"fast  (T = {T_FAST:g}): |psi_0(T)| = {fast.final_magnitude:.6f}")
    print(f"driven (T = {T_FAST:g}): |psi_0(T)| = {driven[-1]:.6f}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
