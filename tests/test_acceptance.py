"""End-to-end acceptance suite.

Each test exercises one headline claim of the package at its published
tolerance and records a single PASS/FAIL line (printed in the terminal
summary) carrying the measured numbers.  Criteria:

 1. F(0)=1 across a parameter matrix; frame-equation RK4 norm conservation.
 2. Riccati and quadrature kernel routes agree pointwise.
 3. Markov-limit closed form recovered.
 4. Regular pulse train keeps F(10) > 0.95 on the benchmark bath.
 5. Control beats free decay by a recorded margin.
 6. Jittered-ensemble mean stays above 0.90 with small standard error.
 7. Random, chaotic, and shot controls all protect, and agree pairwise.
 8. Born-approximation error shrinks as pulse intensity grows.
 9. Volterra and RK4 sweep solvers agree for slow and fast passages.
10. Slow sweep is adiabatic, fast is not, tuned shot noise rescues it.
11. Output CSV bytes are identical at 1, 2, and 8 workers.
"""

import copy
import dataclasses
import json
import pathlib
from functools import partial

import numpy as np
import pytest
from conftest import record_verdict

from pulseguard import (
    BathSpec,
    DEFAULT_STATES,
    ChaoticSpec,
    JitterSpec,
    PulseTrainSpec,
    ShotNoiseSpec,
    SignalFamily,
    TimeGrid,
    effective_frequency,
    ensemble_mean,
    me2_fidelity,
    qsd_fidelity,
    solve_kernel_quadrature,
    solve_kernel_riccati,
    substream,
)
from pulseguard.adiabatic import (
    SweepSpec,
    solve_psi0,
    tdse_components,
    tdse_oracle,
)
from pulseguard.runner import ExperimentConfig, _block, emit_csv, load_config, run_experiment

ROOT = pathlib.Path(__file__).resolve().parents[1]

BENCH_BATH = BathSpec(coupling=1.0, cutoff=0.5)
BENCH_GRID = TimeGrid(t_max=10.0, n_steps=10000)
BENCH_PULSE = PulseTrainSpec(period=0.02, duration=0.01, area=0.2)
BALANCED = (0.5,)

# Free-decay baseline for criterion 5, recorded after the first verified run
# of this artifact (exact-method F at t=10, benchmark bath, no control).
FREE_BASELINE_F10 = 0.455385272224


def verdict(num: int, ok: bool, detail: str) -> None:
    record_verdict(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def memory_block(family, bath, states, master_seed, grid):
    """The ensemble block of the exact (QSD) memory fidelity at omega = 1."""
    config = ExperimentConfig(kind="memory-ensemble", grid=grid, signal=family, bath=bath,
                              states=states, master_seed=master_seed)
    return partial(_block, config)


def pulsed_frequency(grid: TimeGrid, seed: int = 0) -> np.ndarray:
    family = SignalFamily(kind="regular", pulse=BENCH_PULSE)
    return effective_frequency(family.sample(substream(seed, 0), grid), 1.0)


@pytest.fixture(scope="module")
def bench_kernel():
    return solve_kernel_riccati(pulsed_frequency(BENCH_GRID), BENCH_BATH, BENCH_GRID)


@pytest.fixture(scope="module")
def passage_curves():
    fast_grid = TimeGrid(5.0, 5000)
    slow_grid = TimeGrid(50.0, 10000)
    fast = SweepSpec(passage_time=5.0, base_freq=0.3)
    slow = SweepSpec(passage_time=50.0, base_freq=0.3)
    return {
        "fast": (fast, fast_grid, solve_psi0(fast, None, fast_grid)),
        "slow": (slow, slow_grid, solve_psi0(slow, None, slow_grid)),
    }


@pytest.mark.filterwarnings("ignore:shot rate")
def test_criterion_01_identities_and_norms():
    families = {
        "regular": SignalFamily(kind="regular", pulse=BENCH_PULSE),
        "jittered": SignalFamily(
            kind="jittered",
            pulse=BENCH_PULSE,
            jitter=JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18),
        ),
        "chaotic": SignalFamily(
            kind="chaotic", pulse=BENCH_PULSE, chaos=ChaoticSpec(3.9, 0.5)
        ),
        "shot": SignalFamily(kind="shot", shot=ShotNoiseSpec(0.1, 100.0)),
    }
    grid = TimeGrid(t_max=0.2, n_steps=40)
    worst = 0.0
    n_curves = 0
    for coupling in (0.0, 1.0):
        for cutoff in (0.3, 0.5, 3.0):
            bath = BathSpec(coupling, cutoff)
            for p in (0.0, 0.5, 1.0):
                for family in families.values():
                    E = effective_frequency(family.sample(substream(0, 0), grid), 1.0)
                    kernel = solve_kernel_riccati(E, bath, grid)
                    starts = (
                        qsd_fidelity((p,), kernel).values[0],
                        me2_fidelity((p,), E, bath, grid).values[0],
                        ensemble_mean(memory_block(family, bath, (p,), 0, grid), 2)[0][0, 0],
                    )
                    worst = max(worst, max(abs(s - 1.0) for s in starts))
                    n_curves += 3

    sweep = SweepSpec(passage_time=50.0, base_freq=0.3)
    grid50 = TimeGrid(50.0, 5000)
    control = SignalFamily(kind="shot", shot=ShotNoiseSpec(0.1, 100.0)).sample(
        substream(1, 0), grid50
    )
    drift = 0.0
    for c in (None, control):
        components = tdse_components(sweep, c, grid50)
        norms = (np.abs(components) ** 2).sum(axis=1)
        drift = max(drift, float(np.max(np.abs(norms - 1.0))))

    verdict(
        1,
        worst <= 1e-9 and drift <= 1e-8,
        f"F(0)=1 on {n_curves} curves (worst dev {worst:.2e} <= 1e-9); "
        f"T=50 frame-equation norm drift {drift:.2e} <= 1e-8",
    )


def test_criterion_02_kernel_cross_validation(bench_kernel):
    quad = solve_kernel_quadrature(pulsed_frequency(BENCH_GRID), BENCH_BATH, BENCH_GRID)
    dev = float(np.max(np.abs(bench_kernel.values - quad.values)))
    verdict(
        2,
        dev <= 1e-6,
        f"Riccati vs quadrature kernel, pulsed benchmark, dt=1e-3: "
        f"max |dF| = {dev:.3e} <= 1e-6",
    )


def test_criterion_03_markov_closed_form():
    grid = TimeGrid(t_max=10.0, n_steps=20000)
    bath = BathSpec(coupling=1.0, cutoff=200.0)
    kernel = solve_kernel_riccati(np.full(grid.n_steps, 1.0), bath, grid)
    fid = qsd_fidelity(BALANCED, kernel).values
    reference = 0.5 + 0.5 * np.exp(-0.5 * grid.times)
    dev = float(np.max(np.abs(fid - reference)))
    verdict(
        3,
        dev <= 0.01,
        f"memoryless bath (cutoff 200): max dev from 0.5+0.5e^(-t/2) = {dev:.2e} <= 0.01",
    )


def test_criterion_04_pulse_protection(bench_kernel):
    f10 = float(qsd_fidelity(BALANCED, bench_kernel).values[-1])
    verdict(
        4,
        f10 > 0.95,
        f"regular train (area 0.2, period 0.02, duty 0.5): F(10) = {f10:.6f} > 0.95",
    )


def test_criterion_05_control_beats_free_decay(bench_kernel):
    free_kernel = solve_kernel_riccati(
        np.full(BENCH_GRID.n_steps, 1.0), BENCH_BATH, BENCH_GRID
    )
    free_f10 = float(qsd_fidelity(BALANCED, free_kernel).values[-1])
    controlled_f10 = float(qsd_fidelity(BALANCED, bench_kernel).values[-1])
    gap = controlled_f10 - free_f10
    verdict(
        5,
        abs(free_f10 - FREE_BASELINE_F10) <= 1e-9 and gap >= 0.2,
        f"free F(10) = {free_f10:.12f} (baseline {FREE_BASELINE_F10}); "
        f"control gap {gap:.4f} >= 0.2",
    )


def test_criterion_06_jittered_ensemble():
    table = run_experiment(load_config(ROOT / "configs" / "fig2.json"))
    mean_min = float(np.min(table.data["mean"]))
    stderr_max = float(np.max(table.data["stderr"]))
    verdict(
        6,
        mean_min >= 0.90 and stderr_max < 0.01,
        f"200-trajectory jittered ensemble, cutoff 0.3: min mean F = {mean_min:.4f} "
        f">= 0.90, max stderr = {stderr_max:.1e} < 0.01",
    )


def test_criterion_07_disordered_controls_agree():
    area, period = 0.4, 0.02
    duration = 0.75 * period
    runs = {
        "random": (
            SignalFamily(
                kind="jittered",
                pulse=PulseTrainSpec(period, duration, area / 2),
                jitter=JitterSpec(0.0, 0.0, area / 2),
            ),
            12,
            200,
        ),
        "chaotic": (
            SignalFamily(
                kind="chaotic",
                pulse=PulseTrainSpec(period, duration, area),
                chaos=ChaoticSpec(3.9, 0.5),
            ),
            0,
            1,
        ),
        "shot": (SignalFamily(kind="shot", shot=ShotNoiseSpec(0.1, 100.0)), 13, 200),
    }
    curves = {
        name: ensemble_mean(
            memory_block(fam, BENCH_BATH, DEFAULT_STATES, seed, BENCH_GRID), n_traj
        )[0][0]
        for name, (fam, seed, n_traj) in runs.items()
    }
    floor = min(float(c.min()) for c in curves.values())
    names = list(curves)
    pairwise = max(
        float(np.max(np.abs(curves[a] - curves[b])))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )
    verdict(
        7,
        floor >= 0.95 and pairwise <= 0.03,
        f"random/chaotic/shot (area 0.4, duty 0.75): min F = {floor:.4f} >= 0.95, "
        f"max pairwise gap = {pairwise:.4f} <= 0.03",
    )


def test_criterion_08_born_gap_shrinks_with_intensity():
    gaps = []
    for area in (0.1, 0.2, 0.4):
        pulse = PulseTrainSpec(period=0.02, duration=0.01, area=area)
        family = SignalFamily(kind="regular", pulse=pulse)
        E = effective_frequency(family.sample(substream(0, 0), BENCH_GRID), 1.0)
        exact = qsd_fidelity(
            BALANCED, solve_kernel_riccati(E, BENCH_BATH, BENCH_GRID)
        ).values
        born = me2_fidelity(BALANCED, E, BENCH_BATH, BENCH_GRID).values
        gaps.append(float(np.max(np.abs(exact - born))))
    verdict(
        8,
        gaps[0] > gaps[1] > gaps[2],
        "max |F_born - F_exact| strictly decreasing over areas 0.1/0.2/0.4: "
        + " > ".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_09_sweep_solver_equivalence(passage_curves):
    devs = {}
    for name, (sweep, grid, curve) in passage_curves.items():
        oracle = tdse_oracle(sweep, None, grid)
        devs[name] = float(np.max(np.abs(curve.magnitudes - oracle.magnitudes)))
    verdict(
        9,
        max(devs.values()) <= 1e-4,
        f"one-component vs two-component sweep solvers: T=5 dev {devs['fast']:.1e}, "
        f"T=50 dev {devs['slow']:.1e}, both <= 1e-4",
    )


def test_criterion_10_shot_noise_induces_adiabaticity(passage_curves):
    _, _, slow = passage_curves["slow"]
    fast_sweep, fast_grid, fast = passage_curves["fast"]
    family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=100.0))
    config = ExperimentConfig(kind="adiabatic", grid=fast_grid, signal=family, sweep=fast_sweep,
                              master_seed=2026)
    mean, _ = ensemble_mean(partial(_block, config), 16)
    rescued = float(mean[0, -1])
    ok = (
        slow.magnitudes[-1] >= 0.99
        and float(fast.magnitudes.min()) < 0.9
        and rescued >= 0.95
    )
    verdict(
        10,
        ok,
        f"T=50 final |psi0| = {slow.magnitudes[-1]:.6f} >= 0.99; T=5 min = "
        f"{float(fast.magnitudes.min()):.6f} < 0.9; with shot noise (J=0.1, W=100) "
        f"ensemble final = {rescued:.6f} >= 0.95",
    )


def test_criterion_11_worker_count_invariance(tmp_path):
    raw = {
        "kind": "memory-ensemble",
        "grid": {"t_max": 2.0, "n_steps": 400},
        "bath": {"coupling": 1.0, "cutoff": 0.5},
        "signal": {
            "family": "jittered",
            "period": 0.02,
            "duration": 0.01,
            "area": 0.2,
            "period_dev": 0.004,
            "duration_dev": 0.004,
            "area_dev": 0.18,
        },
        "states": [0.3, 0.7],
        "n_traj": 8,
        "master_seed": 21,
    }
    payloads = {}
    for workers in (1, 2, 8):
        config = ExperimentConfig.from_dict(copy.deepcopy(raw))
        path = tmp_path / f"w{workers}.csv"
        emit_csv(run_experiment(dataclasses.replace(config, workers=workers)), path)
        payloads[workers] = path.read_bytes()
    ok = payloads[1] == payloads[2] == payloads[8]
    verdict(
        11,
        ok,
        f"CSV bytes at 1/2/8 workers: {'identical' if ok else 'DIFFER'} "
        f"({len(payloads[1])} bytes)",
    )
