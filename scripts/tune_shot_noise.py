#!/usr/bin/env python3
"""One-time scan for shot-noise parameters that rescue the fast sweep.

Sweeps pulse strength J and rate W over a small grid at fixed mean drive
J * W and beyond, reporting the ensemble-mean final ground-state amplitude
for the fast passage.  This scan picked (J, W) = (0.1, 100), which is also
a drop-in match for the disordered-train comparison because its mean equals
the regular train's time average.  Not part of the test suite's runtime
budget; results are recorded in the preset configs.
"""

import argparse
import itertools
import json
import pathlib

from pulseguard import ConfigError, ExperimentConfig, run_experiment

PRESET = pathlib.Path(__file__).resolve().parents[1] / "configs" / "fig4.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-traj", type=int, default=16)
    parser.add_argument("--n-steps", type=int, default=5000)
    parser.add_argument("--strengths", type=float, nargs="+", default=[0.03, 0.1, 0.3])
    parser.add_argument("--rates", type=float, nargs="+", default=[10.0, 30.0, 100.0])
    args = parser.parse_args()

    preset = json.loads(PRESET.read_text())
    preset["n_traj"] = args.n_traj
    preset["grid"] = {**preset["grid"], "n_steps": args.n_steps}
    scan = list(itertools.product(args.strengths, args.rates))
    try:
        configs = [ExperimentConfig.from_dict(
            {**preset, "signal": {"family": "shot", "strength": strength, "rate": rate}}
        ) for strength, rate in scan]
    except ConfigError as exc:
        parser.error(str(exc))

    sweep = configs[0].sweep
    print(f"T = {sweep.passage_time:g}, base_freq = {sweep.base_freq:g}, n_traj = {args.n_traj}")
    print(f"{'J':>8} {'W':>8} {'J*W':>8} {'mean |psi_0(T)|':>16}")
    for (strength, rate), config in zip(scan, configs):
        table = run_experiment(config)
        final = table.data[table.columns[0]][-1]
        print(f"{strength:8.3f} {rate:8.1f} {strength * rate:8.2f} {final:16.6f}")


if __name__ == "__main__":
    main()
