"""The reproduction scripts, each run end to end in a subprocess at small sizes.

Every script runs its curves as bundled presets plus overrides through
run_experiment, so a script inherits the config checks, the exit codes and
the worker scheduling of `pulseguard run`; these tests pin that, and the
CSV columns each script writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import FREE_BASELINE_F10

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def csv_columns(path):
    header = next(line for line in path.read_text().splitlines() if not line.startswith("#"))
    return header.split(",")


def csv_data(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return dict(zip(lines[0].split(","), values.T))


def run_ok(name, *args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_fig1(tmp_path):
    run_ok("reproduce_fig1.py", "--out-dir", tmp_path, "--t-max", 1.0, "--n-steps", 1000)
    assert csv_columns(tmp_path / "fig1.csv") == [
        "t", "free", "qsd duty 0.25", "qsd duty 0.5", "me2 duty 0.5", "qsd duty 0.75"]
    assert (tmp_path / "fig1.svg").exists()


def test_fig1_pulse_narrower_than_a_cell_is_rejected(tmp_path):
    # dt = 0.1 would never sample the 5 ms pulse of duty 0.25
    done = run_script("reproduce_fig1.py", "--out-dir", tmp_path / "out", "--n-steps", 100)
    assert done.returncode == 2
    # one line, as `pulseguard run` prints it, not argparse's usage block
    assert done.stderr == ("config error: signal.duration = 0.005 is shorter than the grid "
                           "step dt = 0.1; the pulses would alias\n")
    assert not (tmp_path / "out").exists()


def test_fig1_unwritable_out_dir_exits_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    done = run_script("reproduce_fig1.py", "--out-dir", blocker / "out",
                      "--t-max", 1.0, "--n-steps", 1000)
    assert done.returncode == 4
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_fig1_headline_numbers(tmp_path):
    """Acceptance criteria 4 and 5's bounds, on the CSV of the default-size
    run; fig1's preset is the acceptance suite's bench configuration."""
    run_ok("reproduce_fig1.py", "--out-dir", tmp_path)
    data = csv_data(tmp_path / "fig1.csv")
    controlled, free = data["qsd duty 0.5"][-1], data["free"][-1]
    assert controlled > 0.95
    assert abs(free - FREE_BASELINE_F10) <= 1e-9
    assert controlled - free >= 0.2


def test_fig2(tmp_path):
    preset = json.loads((ROOT / "configs" / "fig2.json").read_text())
    preset.update(grid={"t_max": 1.0, "n_steps": 1000}, n_traj=4)
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps(preset))
    run_ok("reproduce_fig2.py", "--out-dir", tmp_path, "--config", config)
    assert csv_columns(tmp_path / "fig2.csv") == ["t", "mean", "stderr", "free"]


def test_fig2_headline_numbers(tmp_path):
    """Acceptance criterion 6's bounds, on the CSV of the default-size run."""
    run_ok("reproduce_fig2.py", "--out-dir", tmp_path)
    data = csv_data(tmp_path / "fig2.csv")
    assert data["mean"].min() >= 0.90
    assert data["stderr"].max() < 0.01


@pytest.mark.parametrize("preset, kind", [("fig1.json", "memory-qsd"),
                                          ("fig4.json", "adiabatic")])
def test_fig2_rejects_a_config_of_another_kind(tmp_path, preset, kind):
    done = run_script("reproduce_fig2.py", "--out-dir", tmp_path / "out",
                      "--config", ROOT / "configs" / preset)
    assert done.returncode == 2
    assert done.stderr == (f"config error: {ROOT / 'configs' / preset}: kind = {kind!r}, "
                           "but this script runs a 'memory-ensemble' config\n")
    assert not (tmp_path / "out").exists()


def test_fig2_prints_the_shot_warning_as_pulseguard_run_does(tmp_path):
    # 100 cells at rate 100: rate * dt = 1, so the config warns, once, as
    # `warning: <message>` and not as Python's source-line format
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps({
        "kind": "memory-ensemble", "grid": {"t_max": 1.0, "n_steps": 100},
        "bath": {"coupling": 1.0, "cutoff": 0.3},
        "signal": {"family": "shot", "strength": 0.1, "rate": 100.0}, "n_traj": 4}))
    done = run_script("reproduce_fig2.py", "--out-dir", tmp_path / "out", "--config", config)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "warning: shot rate * dt = 1 > 0.1: signal.rate = 100.0 is not resolved by the grid "
        "step dt = 0.01; raise grid.n_steps or lower signal.rate\n")


def test_fig2_numerical_failure_exits_3(tmp_path):
    # a strong bath on a long memory: the free-decay reference's kernel diverges
    preset = json.loads((ROOT / "configs" / "fig2.json").read_text())
    preset.update(grid={"t_max": 1.0, "n_steps": 1000}, n_traj=2,
                  bath={"coupling": 1e4, "cutoff": 0.01}, omega=0.0)
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps(preset))
    done = run_script("reproduce_fig2.py", "--out-dir", tmp_path / "out", "--config", config)
    assert done.returncode == 3
    assert done.stderr == ("numerical failure: memory-qsd experiment: trajectory 0: "
                           "memory kernel diverged at t = 0.223\n")
    assert not (tmp_path / "out").exists()


def test_fig3(tmp_path):
    stdout = run_ok("reproduce_fig3.py", "--out-dir", tmp_path, "--n-traj", 2)
    assert csv_columns(tmp_path / "fig3.csv") == ["t", "random", "chaotic", "shot"]
    assert stdout.startswith("random: F(t_max) = ")


def test_fig3_headline_numbers(tmp_path):
    """Acceptance criterion 7's bounds, on the CSV of the default-size run."""
    run_ok("reproduce_fig3.py", "--out-dir", tmp_path)
    data = csv_data(tmp_path / "fig3.csv")
    curves = [data[name] for name in ("random", "chaotic", "shot")]
    assert min(curve.min() for curve in curves) >= 0.95
    assert max(np.abs(a - b).max() for i, a in enumerate(curves) for b in curves[i + 1:]) <= 0.03


@pytest.fixture(scope="module")
def fig4_outputs(tmp_path_factory):
    """fig4 at 33 trajectories, two blocks, at one and at two workers."""
    out = {}
    for workers in (1, 2):
        out_dir = tmp_path_factory.mktemp(f"fig4_w{workers}")
        run_ok("reproduce_fig4.py", "--out-dir", out_dir, "--n-traj", 33,
               "--workers", workers)
        out[workers] = out_dir
    return out


def test_fig4(fig4_outputs):
    assert csv_columns(fig4_outputs[1] / "fig4.csv") == ["t", "slow", "fast", "driven"]


def test_fig4_headline_numbers(tmp_path):
    """Acceptance criterion 10's bounds, on the CSV of the default-size run."""
    run_ok("reproduce_fig4.py", "--out-dir", tmp_path)
    data = csv_data(tmp_path / "fig4.csv")
    assert data["slow"][-1] >= 0.99
    assert data["fast"].min() < 0.9
    assert data["driven"][-1] >= 0.95


def test_fig4_bytes_do_not_depend_on_the_worker_count(fig4_outputs):
    for name in ("fig4.csv", "fig4.svg"):
        assert (fig4_outputs[1] / name).read_bytes() == (fig4_outputs[2] / name).read_bytes()


def test_tune_shot_noise():
    stdout = run_ok("tune_shot_noise.py", "--n-traj", 2, "--n-steps", 1000,
                    "--strengths", 0.1, 0.3, "--rates", 10.0)
    lines = stdout.splitlines()
    assert lines[0] == "T = 5, base_freq = 0.3, n_traj = 2"
    assert [line.split()[:2] for line in lines[2:]] == [["0.100", "10.0"], ["0.300", "10.0"]]


def test_tune_shot_noise_prints_the_shot_warning_as_pulseguard_run_does():
    done = run_script("tune_shot_noise.py", "--n-traj", 1, "--n-steps", 10,
                      "--strengths", 0.1, "--rates", 10)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "warning: shot rate * dt = 5 > 0.1: signal.rate = 10.0 is not resolved by the grid "
        "step dt = 0.5; raise grid.n_steps or lower signal.rate\n")
