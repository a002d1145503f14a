"""The reproduction scripts, each run end to end in a subprocess at small sizes.

Every script runs its curves as bundled presets plus overrides through
run_experiment, so a script inherits the config checks and the worker
scheduling of `pulseguard run`; these tests pin that, and the CSV columns
each script writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert "signal.duration = 0.005 is shorter than the grid step" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_fig2(tmp_path):
    preset = json.loads((ROOT / "configs" / "fig2.json").read_text())
    preset.update(grid={"t_max": 1.0, "n_steps": 1000}, n_traj=4)
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps(preset))
    run_ok("reproduce_fig2.py", "--out-dir", tmp_path, "--config", config)
    assert csv_columns(tmp_path / "fig2.csv") == ["t", "mean", "stderr", "free"]


@pytest.mark.parametrize("preset, kind", [("fig1.json", "memory-qsd"),
                                          ("fig4.json", "adiabatic")])
def test_fig2_rejects_a_config_of_another_kind(tmp_path, preset, kind):
    done = run_script("reproduce_fig2.py", "--out-dir", tmp_path / "out",
                      "--config", ROOT / "configs" / preset)
    assert done.returncode == 2
    assert f"kind = {kind!r}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_fig3(tmp_path):
    stdout = run_ok("reproduce_fig3.py", "--out-dir", tmp_path, "--n-traj", 2)
    assert csv_columns(tmp_path / "fig3.csv") == ["t", "random", "chaotic", "shot"]
    assert stdout.startswith("random: F(t_max) = ")


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


def test_fig4_bytes_do_not_depend_on_the_worker_count(fig4_outputs):
    for name in ("fig4.csv", "fig4.svg"):
        assert (fig4_outputs[1] / name).read_bytes() == (fig4_outputs[2] / name).read_bytes()


def test_tune_shot_noise():
    stdout = run_ok("tune_shot_noise.py", "--n-traj", 2, "--n-steps", 1000,
                    "--strengths", 0.1, 0.3, "--rates", 10.0)
    lines = stdout.splitlines()
    assert lines[0] == "T = 5, base_freq = 0.3, n_traj = 2"
    assert [line.split()[:2] for line in lines[2:]] == [["0.100", "10.0"], ["0.300", "10.0"]]
