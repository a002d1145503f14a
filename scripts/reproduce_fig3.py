#!/usr/bin/env python3
"""Memory protection from three qualitatively different noisy pulse trains.

Compares state-averaged fidelity for (a) pulses with strengths drawn
uniformly in [0, psi], (b) a deterministic chaotic strength sequence from
the logistic map at r = 3.9, and (c) Poissonian shot noise whose mean
matches the regular train.  The three curves are nearly indistinguishable:
protection needs only enough fast spectral weight, not a periodic drive.
"""

import json

from pulseguard import ResultTable

import _figure

PRESET = _figure.CONFIGS / "fig3.json"
AREA = 0.4
PERIOD = 0.02
DUTY = 0.75


def curves(args) -> dict:
    shot = {**json.loads(PRESET.read_text()), "n_traj": args.n_traj, "workers": args.workers}
    pulse = {"period": PERIOD, "duration": DUTY * PERIOD}
    return {
        # uniform strengths in [0, psi]: jitter only the area, centred at psi / 2
        "random": {**shot, "master_seed": 12, "signal": {
            "family": "jittered", **pulse, "area": AREA / 2,
            "period_dev": 0.0, "duration_dev": 0.0, "area_dev": AREA / 2}},
        "chaotic": {**shot, "master_seed": 0, "signal": {
            "family": "chaotic", **pulse, "area": AREA,
            "logistic_r": 3.9, "seed_intensity": 0.5}},
        "shot": shot,
    }


def figure(tables) -> tuple:
    columns = {name: table.data["mean"] for name, table in tables.items()}
    metadata = {"experiment": "fig3", "omega": tables["shot"].metadata["config"]["omega"],
                "area": AREA, "period": PERIOD}
    return (ResultTable(tables["shot"].t, columns, metadata),
            [f"{name}: F(t_max) = {values[-1]:.6f}" for name, values in columns.items()])


if __name__ == "__main__":
    parser = _figure.parser(__doc__)
    parser.add_argument("--n-traj", type=int, default=json.loads(PRESET.read_text())["n_traj"])
    parser.add_argument("--workers", type=int, default=1)
    _figure.main("fig3", "Memory fidelity, disordered pulse trains", parser, curves, figure)
