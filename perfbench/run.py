"""pulseguard benchmark: end-to-end timing of four preset workloads, traced per-module layers.

Run from the root of a checkout (the directory that holds ``src/`` and
``configs/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke               # tiny sizes, every workload, both modes
    python3 perfbench/run.py --record-reference    # write perfbench/reference.json

Workloads (see BENCHMARK.json for why each exists): ``ensemble-jitter``,
``sweep-shot``, ``memory-scan``, ``ensemble-shot-w2``.  The seed overrides
every experiment's ``master_seed``.

With ``--trace 0`` the last line of standard output is one JSON object whose
metrics are ``setup_s`` (spawn of a workload process to a loaded config:
interpreter, numpy, ``pulseguard.cli`` and ``load_config``; the median of
several spawns, each rescaled by the calibration kernel timed just before
and after it), ``norm_wall_s`` (one pass through ``from_dict`` +
``run_experiment`` + ``emit_csv`` of every experiment: the sum over the
experiments of each one's median time over the run, each time rescaled by
the calibration kernel timed around it, so that the host's swings in
per-core speed cancel), ``norm_steps_per_s`` (sum of n_traj * n_steps per
pass over ``norm_wall_s``) and ``peak_rss_mb`` (larger of self and children
``ru_maxrss`` of the workload process after its first pass).  The plain
``setup_wall_s``, ``wall_s`` and ``steps_per_s`` (the same medians and sum
without the rescaling) and the calibration times are on the report line.  A
run ends within ``--seconds`` unless its first pass alone takes longer.
With ``--trace 1`` the metrics are the per-layer self times and call counts
of a traced run, the tracing overhead, and the paired oracle's time and
deviation on trajectory 0.  The line before the result line is a JSON
report with machine facts and the correctness checks.

A failed experiment is one that raised, broke a physical invariant, missed
the recorded fingerprint at the reference seed, or (at workers=2) wrote a
CSV that differs from the workers=1 CSV.  ``failed`` counts them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ensemble-jitter", "sweep-shot", "memory-scan", "ensemble-shot-w2")
SETUP_SPAWNS = 9  # set-up-only spawns, each between two calibrations
CHILD_TIMEOUT = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkloadError(RuntimeError):
    """The workload process failed or did not report."""


def _spawn(args: list, root: Path):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(HERE / "workload.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise WorkloadError(f"workload process did not start: {line.strip()!r}")
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkloadError(f"workload process exited with code {proc.returncode}")
    return setup, out


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, smoke=False):
    """Return (report, metrics) for one run of one workload."""
    from workload import CAL_REF_S, calibrate

    base = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        base.append("--smoke")
    setups, normalised = [], []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            before = calibrate()
            setup, _ = _spawn(base + ["--seconds", "0", "--setup-only"], root)
            after = calibrate()
            setups.append(setup)
            normalised.append(setup * 2.0 * CAL_REF_S / (before + after))
    _, out = _spawn(base + ["--seconds", str(seconds)], root)
    lines = out.strip().splitlines()
    if not lines:
        raise WorkloadError("workload process printed no report")
    report = json.loads(lines[-1])
    metrics = dict(report.pop("metrics"))
    if not trace:
        metrics["setup_s"] = statistics.median(normalised)
        report["setup_wall_s"] = statistics.median(setups)
    return report, metrics


def _check_checkout(root: Path) -> None:
    missing = [p for p in ("src/pulseguard/runner.py", "configs") if not (root / p).exists()]
    if missing:
        raise WorkloadError(f"not a pulseguard checkout ({root}): missing {', '.join(missing)}")


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": os.getloadavg()[0],
    }


def _result(root: Path, trace: int, report: dict, metrics: dict) -> dict:
    """The result line: the metrics BENCHMARK.json lists for this mode, with its units."""
    spec = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise WorkloadError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def smoke(root: Path) -> int:
    """Every workload at tiny size, untraced and traced; exit 1 on any failure."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            report, metrics = run_workload(root, name, 1, 0.0, trace, smoke=True)
            result = _result(root, trace, report, metrics)
            print(json.dumps({"workload": name, "trace": trace, **result}))
            if report["failures"]:
                print("\n".join(report["failures"]), file=sys.stderr)
                ok = False
    return 0 if ok else 1


def record_reference(root: Path) -> int:
    """Fingerprint each workload at its preset's master_seed into reference.json.

    Existing entries are compared first, so an output that drifted from the
    recorded one is refused; delete reference.json to record afresh.
    """
    sys.path.insert(0, str(root / "src"))
    from pulseguard.runner import load_config
    from workload import PRESETS

    recorded = {}
    for name in WORKLOADS:
        seed = load_config(root / "configs" / PRESETS[name]).master_seed
        report, _ = run_workload(root, name, seed, 0.0, 0)
        if report["failures"]:
            print("\n".join(report["failures"]), file=sys.stderr)
            return 1
        recorded[name] = {"seed": seed, "experiments": report["fingerprints"]}
    (HERE / "reference.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    facts = machine_facts()
    try:
        _check_checkout(root)
        if args.smoke:
            return smoke(root)
        if args.record_reference:
            return record_reference(root)
        if args.workload is None:
            parser.error("--workload is required")
        report, metrics = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        result = _result(root, args.trace, report, metrics)
    except (WorkloadError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    facts.update(python=report.pop("python"), numpy=report.pop("numpy"))
    report.pop("fingerprints")
    report["failed_frac"] = result["failed"] / result["attempted"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": facts, **report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
