"""One benchmark workload, run as a closed loop in its own process.

Spawned by ``run.py`` from the root of a checkout:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                  [--setup-only] [--smoke]

The process imports numpy and ``pulseguard.cli`` (what every ``pulseguard
run`` pays), loads the workload's preset with ``load_config`` and prints
``ready``.  With ``--setup-only`` it stops there.  Otherwise one client runs
the workload's experiments round-robin, each through
``ExperimentConfig.from_dict`` -> ``run_experiment`` -> ``emit_csv``, for at
least one full pass and then as long as the next experiment is predicted to
end within ``--seconds``.  A fixed calibration kernel is timed before the
first experiment and after each one; an experiment's time divided by the
mean of the two calibrations around it, times ``CAL_REF_S``, is its
speed-normalised time.  Each experiment's outputs are checked after it is
timed, and one JSON report is printed as the last line.  With ``--trace 1``
untraced and traced passes alternate, without calibration, and the paired
oracle is run on trajectory 0.
"""

from __future__ import annotations

# Everything else is imported inside functions: pulseguard only once main()
# has put the checkout's src/ on the path, and the rest after "ready", so
# that setup_s covers only what `pulseguard run` pays.
import argparse
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

PRESETS = {
    "ensemble-jitter": "fig2.json",
    "sweep-shot": "fig4.json",
    "memory-scan": "fig1.json",
    "ensemble-shot-w2": "fig3.json",
}

# memory-scan: free decay, regular trains at duty 0.25/0.5/0.75, one chaotic train
MEMORY_SIGNALS = (
    ("none", {"family": "none"}),
    ("regular-0.25", {"family": "regular", "period": 0.02, "duration": 0.005, "area": 0.2}),
    ("regular-0.5", {"family": "regular", "period": 0.02, "duration": 0.01, "area": 0.2}),
    ("regular-0.75", {"family": "regular", "period": 0.02, "duration": 0.015, "area": 0.2}),
    ("chaotic", {"family": "chaotic", "period": 0.02, "duration": 0.01, "area": 0.2}),
)
MEMORY_ORACLE = "memory-qsd-chaotic"

# traced layers: public functions plus the block runners of the two ensembles
LAYERS = {
    "signals.sample": ("pulseguard.signals", "sample_family"),
    "qsd.riccati": ("pulseguard.qsd", "solve_kernel_riccati"),
    "qsd.fidelity": ("pulseguard.qsd", "qsd_fidelity"),
    "qsd.block": ("pulseguard.qsd", "_run_block"),
    "qsd.ensemble": ("pulseguard.qsd", "ensemble_fidelity"),
    "me2.fidelity": ("pulseguard.me2", "me2_fidelity"),
    "adiabatic.solve_psi0": ("pulseguard.adiabatic", "solve_psi0"),
    "adiabatic.phases": ("pulseguard.adiabatic", "dynamical_phases"),
    "adiabatic.defect": ("pulseguard.adiabatic", "adiabatic_defect"),
    "adiabatic.block": ("pulseguard.adiabatic", "_run_passage_block"),
    "adiabatic.ensemble": ("pulseguard.adiabatic", "ensemble_passage"),
    "numerics.volterra": ("pulseguard.numerics", "volterra_solve"),
    "runner.load_config": ("pulseguard.runner", "load_config"),
    "runner.run_experiment": ("pulseguard.runner", "run_experiment"),
    "runner.emit_csv": ("pulseguard.runner", "emit_csv"),
}

# reported per-layer metric -> (layer, statistic)
LAYER_METRICS = {
    "signals.sample_s": ("signals.sample", "self_s"),
    "signals.sample_calls": ("signals.sample", "calls"),
    "qsd.riccati_s": ("qsd.riccati", "self_s"),
    "qsd.riccati_calls": ("qsd.riccati", "calls"),
    "qsd.fidelity_s": ("qsd.fidelity", "self_s"),
    "qsd.fidelity_calls": ("qsd.fidelity", "calls"),
    "qsd.block_self_s": ("qsd.block", "self_s"),
    "qsd.ensemble_self_s": ("qsd.ensemble", "self_s"),
    "me2.fidelity_s": ("me2.fidelity", "self_s"),
    "me2.fidelity_calls": ("me2.fidelity", "calls"),
    "adiabatic.solve_psi0_self_s": ("adiabatic.solve_psi0", "self_s"),
    "adiabatic.solve_psi0_calls": ("adiabatic.solve_psi0", "calls"),
    "adiabatic.phases_s": ("adiabatic.phases", "self_s"),
    "adiabatic.defect_s": ("adiabatic.defect", "self_s"),
    "adiabatic.block_self_s": ("adiabatic.block", "self_s"),
    "adiabatic.ensemble_self_s": ("adiabatic.ensemble", "self_s"),
    "numerics.volterra_s": ("numerics.volterra", "self_s"),
    "numerics.volterra_calls": ("numerics.volterra", "calls"),
    "runner.run_experiment_self_s": ("runner.run_experiment", "self_s"),
    "runner.emit_csv_s": ("runner.emit_csv", "self_s"),
}

# On a shared 2-vCPU x86-64 host, per-core speed swings ~1.5x from one
# second to the next and drifts over minutes, and CPU time swings with it.  The
# calibration kernel mixes the package's two kinds of work -- a scalar
# complex loop like the Riccati kernel and numpy reductions over growing
# slices like the Volterra memory sum -- so its time tracks that speed.
CAL_LOOP_STEPS = 8_000
CAL_SLICE_LEN = 2_000
CAL_SLICE_STRIDE = 15
CAL_REPEATS = 3  # the median of three shrugs off one preempted timing
# reference calibration time: about the median on a 2-vCPU x86-64 host, so
# that normalised times read as seconds at that host's usual speed
CAL_REF_S = 0.006

# outputs at the reference seed must match the recorded fingerprint this closely
REFERENCE_ATOL = 1.0e-9
REFERENCE_RTOL = 1.0e-9
# physical invariants at any seed
UNIT_SLACK = 1.0e-9
PSI0_OVERSHOOT = 1.0e-3  # the admissible |psi_0| overshoot pulseguard itself enforces
# oracle against production on trajectory 0 (the sweep-solver acceptance tolerance)
ORACLE_TOL = 1.0e-4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRESETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny grids and ensembles")
    return parser.parse_args(argv)


# An ensemble workload runs its preset's trajectories as several smaller
# ensembles, (count, n_traj each), so that no experiment lasts much over a
# second and the calibration around it sees the speed it ran at.  Ensemble j
# of a pass has master_seed = SUB_SEED_STRIDE * seed + j.
ENSEMBLES = {
    "ensemble-jitter": (10, 20),  # fig2's 200 trajectories, one qsd block each
    "sweep-shot": (8, 4),  # fig4's 32 trajectories, half an adiabatic block each
    "ensemble-shot-w2": (4, 64),  # 256 trajectories, one qsd block per worker
}
SUB_SEED_STRIDE = 100


def build_experiments(name: str, preset, seed: int, smoke: bool) -> list:
    """(label, raw config dict) for each experiment of one pass, in order."""
    base = preset.resolved()
    base["master_seed"] = seed
    count, n_traj = ENSEMBLES.get(name, (1, 1))
    if smoke:
        # a tenth of the time span at the same step size, a few trajectories
        base["grid"] = {
            "t_max": base["grid"]["t_max"] / 10.0,
            "n_steps": max(base["grid"]["n_steps"] // 10, 10),
        }
        if "sweep" in base:
            base["sweep"] = dict(base["sweep"], passage_time=base["sweep"]["passage_time"] / 10.0)
        count, n_traj = min(count, 2), min(n_traj, 4)
    if name == "ensemble-jitter":
        label, base = "fig2", dict(base, workers=1)
    elif name == "sweep-shot":
        label, base = "fig4-defect", dict(base, with_defect=True, workers=1)
    elif name == "ensemble-shot-w2":
        label, base = "fig3-w2", dict(base, workers=2)
    else:
        base.pop("states", None)  # the default nine-state grid
        return [
            (f"{kind}-{label}", dict(base, kind=kind, signal=signal, workers=1))
            for kind in ("memory-qsd", "memory-me2")
            for label, signal in MEMORY_SIGNALS
        ]
    return [
        (f"{label}-{j}", dict(base, n_traj=n_traj, master_seed=SUB_SEED_STRIDE * seed + j))
        for j in range(count)
    ]


def calibrate() -> float:
    """Seconds taken by the calibration kernel: the median of CAL_REPEATS timings."""
    import numpy as np

    history = np.linspace(0.0, 1.0, CAL_SLICE_LEN) * (1.0 + 1.0j)
    clock = time.perf_counter
    timings = []
    for _ in range(CAL_REPEATS):
        start = clock()
        f = 0.0j
        rate = -0.5 + 1.0j
        for _ in range(CAL_LOOP_STEPS):
            k1 = 0.25 + (rate + f) * f
            f = f + 1.0e-3 * (0.25 + (rate + f + 5.0e-4 * k1) * (f + 5.0e-4 * k1))
        memory = 0.0j
        for i in range(1, CAL_SLICE_LEN, CAL_SLICE_STRIDE):
            memory += np.sum(history[:i] * history[i - 1 :: -1]) - 0.5 * history[0]
        timings.append(clock() - start)
        if not np.isfinite(f) or not np.isfinite(memory):
            raise ArithmeticError("calibration kernel diverged")
    return sorted(timings)[CAL_REPEATS // 2]


def fingerprint(table, csv_bytes: bytes) -> dict:
    """CSV sha256 plus each column at a quarter, half, three quarters and the end."""
    import hashlib

    n = table.n_rows - 1
    nodes = (n // 4, n // 2, 3 * n // 4, n)
    return {
        "sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "columns": {
            name: {str(i): float(table.data[name][i]) for i in nodes} for name in table.columns
        },
    }


def reference_misses(found: dict, expected: dict) -> list:
    """Fingerprint values outside the reference tolerance (the hash is not compared)."""
    misses = []
    for name, values in expected["columns"].items():
        got = found["columns"].get(name)
        if got is None:
            misses.append(f"column {name} missing")
            continue
        for node, ref in values.items():
            value = got.get(node)
            if value is None or abs(value - ref) > REFERENCE_ATOL + REFERENCE_RTOL * abs(ref):
                misses.append(f"{name}[{node}] = {value!r}, reference {ref!r}")
    return misses


def invariant_misses(config, table) -> list:
    """Physical invariants that hold at every seed."""
    import numpy as np

    misses = []
    data = {name: np.asarray(table.data[name], dtype=float) for name in table.columns}
    for name, values in data.items():
        if not np.all(np.isfinite(values)):
            misses.append(f"{name} has non-finite values")
    if config.kind.startswith("memory-"):
        curve = data[table.columns[0]]
        if abs(curve[0] - 1.0) > UNIT_SLACK:
            misses.append(f"fidelity starts at {curve[0]!r}, not 1")
        if curve.min() < -UNIT_SLACK or curve.max() > 1.0 + UNIT_SLACK:
            misses.append(f"fidelity leaves [0, 1]: [{curve.min()!r}, {curve.max()!r}]")
    else:
        magnitude = data[table.columns[0]]
        if abs(magnitude[0] - 1.0) > UNIT_SLACK:
            misses.append(f"|psi_0| starts at {magnitude[0]!r}, not 1")
        if magnitude.max() > 1.0 + PSI0_OVERSHOOT:
            misses.append(f"|psi_0| reaches {magnitude.max()!r}")
    for name in ("stderr", "defect"):
        if name in data and data[name].min() < 0.0:
            misses.append(f"{name} is negative")
    return misses


class Loop:
    """Runs the workload's experiments and checks what each one writes."""

    def __init__(self, experiments, outdir: Path, reference):
        from pulseguard.runner import ExperimentConfig

        self.experiments = experiments
        self.configs = {label: ExperimentConfig.from_dict(raw) for label, raw in experiments}
        self.outdir = outdir
        self.reference = reference
        self.attempted = 0
        self.failures: list = []
        self.csv_match = 0
        self.csv_differ = 0
        self.fingerprints: dict = {}
        self.hashes: list = []  # (label, CSV sha256) of every checked experiment

    @property
    def steps(self) -> int:
        """Sum of n_traj * n_steps over one pass."""
        return sum(c.n_traj * c.grid.n_steps for c in self.configs.values())

    def run(self, label: str, raw: dict) -> tuple:
        """Time one experiment, then check it; return (wall seconds, CSV bytes written)."""
        from pulseguard.runner import ExperimentConfig, emit_csv, run_experiment

        clock = time.perf_counter
        start = clock()
        try:
            table = run_experiment(ExperimentConfig.from_dict(raw))
            emit_csv(table, self.outdir / f"{label}.csv")
        except Exception as exc:  # a failed experiment is counted, the loop goes on
            wall = clock() - start
            return wall, self._check(label, None, exc)
        wall = clock() - start
        return wall, self._check(label, table, None)

    def run_pass(self) -> tuple:
        """Run every experiment once; return (wall seconds, CSV bytes written)."""
        walls, written = zip(*(self.run(label, raw) for label, raw in self.experiments))
        return sum(walls), sum(written)

    def _check(self, label: str, table, error) -> int:
        import traceback

        self.attempted += 1
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.failures.append(f"{label}: {type(error).__name__}: {error}")
            return 0
        payload = (self.outdir / f"{label}.csv").read_bytes()
        found = fingerprint(table, payload)
        self.hashes.append((label, found["sha256"]))
        self.fingerprints[label] = found
        misses = invariant_misses(self.configs[label], table)
        expected = None if self.reference is None else self.reference.get(label)
        if self.reference is not None and expected is None:
            misses.append("no recorded fingerprint")
        elif expected is not None:
            misses += reference_misses(found, expected)
            if found["sha256"] == expected["sha256"]:
                self.csv_match += 1
            else:
                self.csv_differ += 1
        if misses:
            self.failures.append(f"{label}: " + "; ".join(misses))
        return len(payload)

    def check_worker_invariance(self) -> None:
        """CSV bytes at workers > 1 must equal those of the same config at workers=1.

        Only the first experiment is re-run at workers=1: the others take the
        same code path, and each re-run costs a serial ensemble.
        """
        import hashlib

        from pulseguard.runner import ExperimentConfig, emit_csv, run_experiment

        label, raw = self.experiments[0]
        if raw.get("workers", 1) == 1:
            return
        path = self.outdir / f"{label}-w1.csv"
        self.attempted += 1
        try:
            emit_csv(run_experiment(ExperimentConfig.from_dict(dict(raw, workers=1))), path)
        except Exception as exc:  # counted like any failed experiment
            self.failures.append(f"{label} at workers=1: {type(exc).__name__}: {exc}")
            return
        serial = hashlib.sha256(path.read_bytes()).hexdigest()
        runs = [digest for run_label, digest in self.hashes if run_label == label]
        for index, digest in enumerate(runs):
            if digest != serial:
                self.failures.append(f"{label}: run {index} CSV differs from the workers=1 CSV")


def oracle_probe(config) -> dict:
    """Time the paired oracle on trajectory 0 and its max deviation from production."""
    import numpy as np

    from pulseguard.adiabatic import solve_psi0, tdse_oracle
    from pulseguard.qsd import solve_kernel_quadrature, solve_kernel_riccati
    from pulseguard.signals import effective_frequency, substream

    signal = config.signal.sample(substream(config.master_seed, 0), config.grid)
    clock = time.perf_counter
    if config.kind == "adiabatic":
        production = solve_psi0(config.sweep, signal, config.grid).amplitudes
        start = clock()
        oracle = tdse_oracle(config.sweep, signal, config.grid).amplitudes
        prefix = "oracle.tdse"
    else:
        E = effective_frequency(signal, config.omega)
        production = solve_kernel_riccati(E, config.bath, config.grid).values
        start = clock()
        oracle = solve_kernel_quadrature(E, config.bath, config.grid).values
        prefix = "oracle.quadrature"
    elapsed = clock() - start
    return {f"{prefix}_s": elapsed, f"{prefix}_max_dev": float(np.max(np.abs(oracle - production)))}


def check_oracle(loop: Loop, config) -> dict:
    """Oracle metrics for trajectory 0; a raise or a deviation over ORACLE_TOL fails."""
    metrics = dict.fromkeys(
        ("oracle.quadrature_s", "oracle.quadrature_max_dev", "oracle.tdse_s", "oracle.tdse_max_dev"),
        0.0,
    )
    loop.attempted += 1
    try:
        probe = oracle_probe(config)
    except Exception as exc:  # counted like any failed experiment
        loop.failures.append(f"oracle probe: {type(exc).__name__}: {exc}")
        return metrics
    metrics.update(probe)
    dev = next(v for k, v in probe.items() if k.endswith("_max_dev"))
    if not dev <= ORACLE_TOL:
        loop.failures.append(f"oracle deviation {dev:.3e} > {ORACLE_TOL:g}")
    return metrics


def _mean(values):
    return sum(values) / len(values)


def layer_report(summaries: list, walls: list, csv_bytes: list, steps_per_call: int) -> dict:
    """Mean over traced passes of each per-layer metric."""
    per_pass = []
    for summary, wall, written in zip(summaries, walls, csv_bytes):
        layers = summary["layers"]
        row = {
            metric: layers.get(layer, {}).get(stat, 0 if stat == "calls" else 0.0)
            for metric, (layer, stat) in LAYER_METRICS.items()
        }
        calls = row["qsd.riccati_calls"]
        row["qsd.riccati_us_per_step"] = (
            1e6 * row["qsd.riccati_s"] / (calls * steps_per_call) if calls else 0.0
        )
        row["runner.csv_bytes"] = written
        row["trace.uncovered_s"] = wall - summary["top_level_s"]
        per_pass.append(row)
    return {metric: _mean([row[metric] for row in per_pass]) for metric in per_pass[0]}


def closed_loop(loop: Loop, seconds: float) -> tuple:
    """Run the experiments round-robin, the calibration timed between each two.

    At least one full pass runs; after that the loop goes on while the next
    experiment, at its last wall time, is predicted to end within
    ``seconds``.  Returns the wall and speed-normalised times per label, the
    calibration times and the peak RSS in kB after the first pass (later
    passes can raise the high-water mark through heap reuse alone).
    """
    import resource

    clock = time.perf_counter
    raw = {label: [] for label, _ in loop.experiments}
    normalised = {label: [] for label, _ in loop.experiments}
    calibrations = [calibrate()]
    n = len(loop.experiments)
    start = clock()
    index = 0
    while True:
        label, config = loop.experiments[index % n]
        wall, _ = loop.run(label, config)
        calibrations.append(calibrate())
        raw[label].append(wall)
        normalised[label].append(wall * 2.0 * CAL_REF_S / (calibrations[-2] + calibrations[-1]))
        index += 1
        if index == n:
            rss_kb = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
        if index >= n:
            upcoming = loop.experiments[index % n][0]
            if clock() - start + raw[upcoming][-1] > seconds:
                break
    return raw, normalised, calibrations, rss_kb


def traced_loop(loop: Loop, tracer, seconds: float) -> tuple:
    """Alternate untraced and traced passes while the next round fits in ``seconds``.

    Returns the untraced and traced pass walls, the traced passes' span
    summaries and the CSV bytes each traced pass wrote.
    """
    from tracer import summarize

    walls, traced_walls, summaries, traced_bytes = [], [], [], []
    clock = time.perf_counter
    start = clock()
    while True:
        round_start = clock()
        walls.append(loop.run_pass()[0])
        with tracer.active():
            wall, written = loop.run_pass()
        traced_walls.append(wall)
        traced_bytes.append(written)
        summaries.append(summarize(tracer.take()))
        # stop before a round that would end after --seconds (always run one)
        now = clock()
        if now - start + (now - round_start) > seconds:
            return walls, traced_walls, summaries, traced_bytes


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import pulseguard.cli  # noqa: F401  (start-up cost of every `pulseguard run`)
    from pulseguard import runner

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(LAYERS)
        with tracer.active():
            preset = runner.load_config(ROOT / "configs" / PRESETS[args.workload])
        load_spans = tracer.take()
    else:
        preset = runner.load_config(ROOT / "configs" / PRESETS[args.workload])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import json
    import shutil
    import statistics
    import tempfile

    from tracer import summarize

    experiments = build_experiments(args.workload, preset, args.seed, args.smoke)
    reference = None
    if not args.smoke and REFERENCE.exists():
        recorded = json.loads(REFERENCE.read_text()).get(args.workload)
        if recorded is not None and recorded["seed"] == args.seed:
            reference = recorded["experiments"]

    outdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        loop = Loop(experiments, outdir, reference)
        if tracer is None:
            raw, normalised, calibrations, rss_kb = closed_loop(loop, args.seconds)
            loop.check_worker_invariance()
            # a pass is every experiment once, each at its median over the run
            wall_s = sum(statistics.median(times) for times in raw.values())
            norm_wall_s = sum(statistics.median(times) for times in normalised.values())
            metrics = {
                "norm_wall_s": norm_wall_s,
                "norm_steps_per_s": loop.steps / norm_wall_s,
                "peak_rss_mb": rss_kb / 1024.0,
            }
            timing = {
                "wall_s": wall_s,
                "steps_per_s": loop.steps / wall_s,
                "runs_per_experiment": min(len(times) for times in raw.values()),
                "calibration_s": {
                    "median": statistics.median(calibrations),
                    "min": min(calibrations),
                    "max": max(calibrations),
                    "count": len(calibrations),
                },
            }
        else:
            walls, traced_walls, summaries, traced_bytes = traced_loop(loop, tracer, args.seconds)
            loop.check_worker_invariance()
            n_steps = loop.configs[experiments[0][0]].grid.n_steps
            metrics = layer_report(summaries, traced_walls, traced_bytes, n_steps)
            load = summarize(load_spans)["layers"].get("runner.load_config", {})
            metrics["runner.load_config_s"] = load.get("self_s", 0.0)
            metrics["trace.overhead_s"] = _mean(traced_walls) - _mean(walls)
            oracle_label = MEMORY_ORACLE if args.workload == "memory-scan" else experiments[0][0]
            metrics.update(check_oracle(loop, loop.configs[oracle_label]))
            timing = {"pass_walls_s": walls, "traced_pass_walls_s": traced_walls}
        report = {
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            **timing,
            "attempted": loop.attempted,
            "failures": loop.failures,
            "reference_seed": reference is not None,
            "csv_sha256_match": loop.csv_match,
            "csv_sha256_differ": loop.csv_differ,
            "absent_layers": tracer.absent if tracer is not None else [],
            "fingerprints": loop.fingerprints,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
