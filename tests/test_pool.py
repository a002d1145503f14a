"""The process pool that ensemble_mean keeps for the life of the process.

One pool serves every pooled run in a process; it is replaced when the
worker count changes, replaced by the next run when it broke while idle,
dropped when it breaks under a run, and its workers end with their parent
however the parent ends.  A worker sends its block's warnings back to the
parent, which shows them under its own filters and printer, as a
one-process run does.  None of this may move a byte of any output.  The
process keeps its freed heap memory as it keeps the pool, so that a
repeated run reuses its pages.
"""

import ctypes
import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import types
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing import active_children

import pytest
from test_runner import DIPPING_RAW, ENSEMBLE_RAW, OVERFLOWING_SHOT, ROOT, raw, run_python

from pulseguard import ensemble, runner
from pulseguard.ensemble import _BLOCK
from pulseguard.numerics import NumericOverflowError
from pulseguard.runner import ExperimentConfig, emit_csv, run_experiment

# two batched blocks and a remainder block of three
CONFIG_RAW = raw(ENSEMBLE_RAW, n_traj=2 * _BLOCK + 3)
CONFIG = ExperimentConfig.from_dict(CONFIG_RAW)
# trajectory 0 draws two arrivals in one cell, whose height overflows, in a
# pool worker: strength / dt = 1e307
OVERFLOWING_RAW = raw(OVERFLOWING_SHOT[0][0], **OVERFLOWING_SHOT[0][1],
                      kind="memory-ensemble", n_traj=_BLOCK + 3, workers=2)
# three blocks, the first of which warns that Re int F dipped below zero
# (trajectories 17 and 27); they stop short of trajectory 66, which diverges
DIPPING = ExperimentConfig.from_dict(raw(DIPPING_RAW, n_traj=2 * _BLOCK + 2))


@pytest.fixture()
def pools(monkeypatch):
    """Every process pool started during the test, in order; each records
    whether it was shut down."""
    started = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.max_workers = kwargs["max_workers"]
            self.was_shut_down = False
            started.append(self)

        def shutdown(self, *args, **kwargs):
            self.was_shut_down = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorded)
    return started


def csv_bytes(config, path) -> bytes:
    emit_csv(run_experiment(config), path)
    return path.read_bytes()


def running(pid: int) -> bool:
    """Whether process pid runs; a zombie, dead but not yet reaped, does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return True


def wait_until_gone(pids, seconds: float) -> list:
    """The pids still running after up to `seconds` of waiting for them to end."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and any(map(running, pids)):
        time.sleep(0.05)
    return [pid for pid in pids if running(pid)]


def test_consecutive_pooled_runs_share_one_pool(tmp_path, pools):
    other = dataclasses.replace(CONFIG, master_seed=7)
    serial = [csv_bytes(config, tmp_path / f"w1-{i}.csv")
              for i, config in enumerate((CONFIG, other))]
    pooled = [csv_bytes(dataclasses.replace(config, workers=2), tmp_path / f"w2-{i}.csv")
              for i, config in enumerate((CONFIG, other))]
    assert len(pools) == 1 and not pools[0].was_shut_down
    assert pooled == serial


def test_a_changed_worker_count_replaces_the_pool(tmp_path, pools):
    serial = csv_bytes(CONFIG, tmp_path / "w1.csv")
    assert csv_bytes(dataclasses.replace(CONFIG, workers=2), tmp_path / "a.csv") == serial
    assert csv_bytes(dataclasses.replace(CONFIG, workers=3), tmp_path / "b.csv") == serial
    assert len(pools) == 2
    assert pools[0].was_shut_down and not pools[1].was_shut_down
    assert pools[1].max_workers == 3


@pytest.mark.parametrize("change", ["printer", "ignore", "error"])
def test_a_changed_filter_or_printer_keeps_the_pool(tmp_path, pools, change):
    """A new printer or filter applies to the kept pool's warnings, as to a
    one-process run's: the printer is shown each warning with the file and
    line a one-process run gives it, and a filter naming the warning's
    module ignores it, or raises it."""
    serial = csv_bytes(CONFIG, tmp_path / "w1.csv")
    assert csv_bytes(dataclasses.replace(CONFIG, workers=2), tmp_path / "a.csv") == serial
    pooled = dataclasses.replace(DIPPING, workers=2)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        shown = []
        warnings.showwarning = lambda message, category, filename, lineno, *_: shown.append(
            (str(message), category, filename, lineno))
        if change == "printer":
            one_process = run_experiment(DIPPING).data["mean"]
            assert len(shown) == 2
            expected, shown[:] = shown[:], []
            assert run_experiment(pooled).data["mean"].tobytes() == one_process.tobytes()
            assert shown == expected
        elif change == "ignore":
            warnings.filterwarnings("ignore", message="Re int F", module=r"pulseguard\.runner")
            run_experiment(pooled)
            assert shown == []
        else:
            warnings.filterwarnings("error", message="Re int F")
            with pytest.raises(RuntimeWarning, match="Re int F dipped below zero"):
                run_experiment(pooled)
    assert csv_bytes(dataclasses.replace(CONFIG, workers=2), tmp_path / "b.csv") == serial
    assert len(pools) == 1 and not pools[0].was_shut_down


def test_pooled_warnings_print_as_one_process_prints_them(tmp_path):
    """Under `default`, two runs in one process print the warning once, at
    the file and line a one-process run prints, whatever the worker count
    or start method; a forked pool once printed it once per worker that
    met it."""
    code = (
        "import multiprocessing, sys\n"
        "from pulseguard.runner import load_config, run_experiment\n"
        "multiprocessing.set_start_method(sys.argv[2])\n"
        "for _ in range(2):\n"
        "    run_experiment(load_config(sys.argv[1], workers=int(sys.argv[3])))\n"
    )
    config = write_config(tmp_path / "config.json", raw(DIPPING_RAW, n_traj=DIPPING.n_traj))
    one_process = run_python("-W", "default", "-c", code, config, "fork", 1)
    assert one_process.returncode == 0, one_process.stderr
    assert one_process.stderr.count("Re int F dipped below zero") == 1, one_process.stderr
    for method, workers in [("fork", 2), ("fork", 3), ("spawn", 2), ("spawn", 3)]:
        done = run_python("-W", "default", "-c", code, config, method, workers)
        assert (done.returncode, done.stderr) == (0, one_process.stderr), (method, workers)


def test_workers_below_one_leave_the_kept_pool(tmp_path, pools):
    """ensemble_mean refuses a worker count below one before it looks at the
    kept pool, which once was shut down before the pool start failed."""
    csv_bytes(dataclasses.replace(CONFIG, workers=2), tmp_path / "w2.csv")
    pool = ensemble._pool
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        ensemble.ensemble_mean(partial(runner._block, CONFIG), 70, workers=0)
    assert ensemble._pool is pool and not pool.was_shut_down


def test_a_killed_worker_leaves_a_fresh_pool(tmp_path, pools):
    """A pool that broke while idle is replaced by the next run, which
    never used it; that run writes the one-process bytes."""
    config = dataclasses.replace(CONFIG, workers=2)
    serial = csv_bytes(CONFIG, tmp_path / "w1.csv")
    assert csv_bytes(config, tmp_path / "a.csv") == serial
    workers = [child.pid for child in active_children()]
    assert len(workers) == 2
    os.kill(workers[0], signal.SIGKILL)
    # the pool marks itself broken before it ends the surviving worker, so
    # once both are gone its next submit is refused at once
    assert wait_until_gone(workers, 10.0) == []
    assert csv_bytes(config, tmp_path / "b.csv") == serial
    assert len(pools) == 2
    assert pools[0].was_shut_down and not pools[1].was_shut_down
    assert ensemble._pool is pools[1]


def end_worker_at_block(block, ks):
    """A block that ends its worker when it holds trajectory 0, and otherwise
    runs `block`."""
    if ks[0] == 0:
        os._exit(1)
    return block(ks)


def test_a_worker_that_dies_mid_run_breaks_that_run(tmp_path, pools):
    """A break after a block reached the pool is raised as a MemoryError
    naming the trajectories of the first block not done, and the pool is
    dropped; the next run starts afresh with the one-process bytes."""
    config = dataclasses.replace(CONFIG, workers=2)
    serial = csv_bytes(CONFIG, tmp_path / "w1.csv")
    with pytest.raises(MemoryError, match="^a pool worker died before trajectories 0-31 "
                                          "were done$") as failure:
        ensemble.ensemble_mean(partial(end_worker_at_block, partial(runner._block, config)),
                               config.n_traj, workers=2)
    assert isinstance(failure.value.__cause__, BrokenProcessPool)
    assert ensemble._pool is None
    assert len(pools) == 1 and pools[0].was_shut_down
    assert csv_bytes(config, tmp_path / "b.csv") == serial
    assert len(pools) == 2 and not pools[1].was_shut_down


# a script that runs `pulseguard run` with a block that ends its worker
# when it holds trajectory 0; its worker functions are importable under
# every start method, so the script guards its run
DYING_RUN = """\
import os
import sys

from pulseguard import cli, runner

block = runner._block


def dying_block(config, ks):
    if ks[0] == 0:
        os._exit(1)
    return block(config, ks)


if __name__ == "__main__":
    runner._block = dying_block
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_dead_worker_exits_2_with_one_line(tmp_path):
    """A pool worker killed under a run, as the out-of-memory killer would,
    is a config error naming grid.n_steps and the block, not a traceback."""
    script = tmp_path / "dying_run.py"
    script.write_text(DYING_RUN)
    config = write_config(tmp_path / "cfg.json", raw(ENSEMBLE_RAW, n_traj=2 * _BLOCK + 3))
    out = tmp_path / "res.csv"
    done = run_python(script, "run", "--config", config, "--out", out, "--workers", "2")
    assert done.returncode == 2, done.stderr
    assert done.stderr == (
        "config error: grid.n_steps = 400 needs more memory than is free: a pool worker "
        "died before trajectories 0-31 were done\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:shot rate")
def test_an_overflow_in_a_worker_leaves_the_pool_usable(tmp_path, pools):
    with pytest.raises(NumericOverflowError, match="trajectory 0: "):
        run_experiment(ExperimentConfig.from_dict(OVERFLOWING_RAW))
    config = dataclasses.replace(CONFIG, workers=2)
    assert csv_bytes(config, tmp_path / "w2.csv") == csv_bytes(CONFIG, tmp_path / "w1.csv")
    assert len(pools) == 1 and not pools[0].was_shut_down


def test_threads_share_the_pool(tmp_path, pools):
    """Threads that run pooled experiments at once choose, use and keep one
    pool between them, and each gets the one-process bytes."""
    serial = csv_bytes(CONFIG, tmp_path / "w1.csv")
    config = dataclasses.replace(CONFIG, workers=2)
    results = {}

    def run(i):
        results[i] = csv_bytes(config, tmp_path / f"thread-{i}.csv")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: serial for i in range(4)}
    assert len(pools) == 1


def write_config(path, config_raw):
    path.write_text(json.dumps(config_raw))
    return path


def test_a_forked_child_starts_its_own_pool(tmp_path):
    # the parent's pool is not the child's to use: a child that used it
    # would wait for ever on workers that never see its blocks.  Under
    # forkserver a forked child cannot start a pool at all, so the pools fork
    code = (
        "import multiprocessing, os, signal, sys\n"
        "from pulseguard.runner import load_config, run_experiment\n"
        "multiprocessing.set_start_method('fork')\n"
        "config = load_config(sys.argv[1], workers=2)\n"
        "before = run_experiment(config).data['mean'].tobytes()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    os._exit(0 if run_experiment(config).data['mean'].tobytes() == before else 1)\n"
        "print(os.waitpid(pid, 0)[1])\n"
    )
    done = run_python("-c", code, write_config(tmp_path / "config.json", CONFIG_RAW))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n", done.stderr


ENDINGS = {
    "exit": "",
    "overflow": (
        "try:\n"
        "    run_experiment(load_config(sys.argv[2]))\n"
        "except NumericOverflowError:\n"
        "    pass\n"
    ),
    "sigkill": "time.sleep(120)\n",
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_no_worker_outlives_its_parent(tmp_path, ending):
    """The workers end with the process that ran a pooled experiment,
    whether it exits, exits after a worker's overflow, or is killed."""
    code = (
        "import multiprocessing, sys, time, warnings\n"
        "from pulseguard.numerics import NumericOverflowError\n"
        "from pulseguard.runner import load_config, run_experiment\n"
        "warnings.simplefilter('ignore')\n"
        "run_experiment(load_config(sys.argv[1], workers=2))\n"
        "print(*[child.pid for child in multiprocessing.active_children()], flush=True)\n"
        + ENDINGS[ending]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path for path in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if path))
    proc = subprocess.Popen(
        [sys.executable, "-c", code, write_config(tmp_path / "config.json", CONFIG_RAW),
         write_config(tmp_path / "overflowing.json", OVERFLOWING_RAW)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        if ending == "sigkill":
            proc.kill()
        returncode = proc.wait(timeout=60)
        assert len(pids) == 2, proc.stderr.read()
        assert returncode == (-signal.SIGKILL if ending == "sigkill" else 0)
        assert wait_until_gone(pids, 10.0) == []
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def _raising(error):
    def load(name):
        raise error
    return load


@pytest.mark.parametrize("load", [
    _raising(TypeError("no C library to load")),  # Windows
    _raising(OSError("cannot load")),
    lambda name: object(),  # a C library without mallopt, as macOS's
], ids=["TypeError", "OSError", "no-mallopt"])
def test_keeping_freed_memory_is_skipped_without_mallopt(monkeypatch, load):
    monkeypatch.setattr(ctypes, "CDLL", load)
    ensemble._keep_freed_memory()


def test_keeping_freed_memory_sets_both_thresholds(monkeypatch):
    calls = []
    library = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
    ensemble._keep_freed_memory()
    # M_MMAP_THRESHOLD to glibc's 64-bit maximum, M_TRIM_THRESHOLD above it
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_repeated_sweep_reuses_its_memory(tmp_path):
    """By its third run, a fig4 ensemble takes its arrays from the freed heap
    of the runs before it, not from fresh pages."""
    code = (
        "import resource, sys\n"
        "from pulseguard.runner import emit_csv, load_config, run_experiment\n"
        "config = load_config(sys.argv[1], n_traj=4)\n"
        "faults = []\n"
        "for k in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    table = run_experiment(config)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "    emit_csv(table, sys.argv[2])\n"
        "print(*faults)\n"
    )
    done = run_python("-c", code, ROOT / "configs" / "fig4.json", tmp_path / "fig4.csv")
    assert done.returncode == 0, done.stderr
    faults = [int(count) for count in done.stdout.split()]
    assert faults[2] < 100, faults
