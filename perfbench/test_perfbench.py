"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def test_self_time_subtracts_wrapped_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["a", 20.0, 21.0, -1]]
    summary = summarize(spans)
    assert summary["layers"]["a"] == {"calls": 2, "total_s": 11.0, "self_s": 7.0}
    assert summary["layers"]["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert summary["top_level_s"] == 11.0


def _fake_package(monkeypatch):
    """A package whose second module imports a function of the first one."""
    package = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec("def leaf(x):\n    return x + 1\n\ndef outer(x):\n    return leaf(x) * leaf(x)\n",
         vars(core))
    user = types.ModuleType("fakepkg.user")
    user.outer = core.outer
    package.outer = core.outer
    for module in (package, core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return package, core, user


def test_tracer_rebinds_every_binding_and_reports_absent_layers(monkeypatch):
    package, core, user = _fake_package(monkeypatch)
    original = core.outer
    tracer = Tracer(
        {
            "outer": ("fakepkg.core", "outer"),
            "leaf": ("fakepkg.core", "leaf"),
            "deleted.function": ("fakepkg.core", "no_such_function"),
            "deleted.module": ("fakepkg.no_such_module", "anything"),
        },
        package="fakepkg",
    )
    with tracer.active():
        assert user.outer is package.outer is core.outer is not original
        assert user.outer(1) == 4
    assert user.outer is package.outer is core.outer is original
    assert tracer.absent == ["deleted.function", "deleted.module"]
    summary = summarize(tracer.take())
    assert summary["layers"]["outer"]["calls"] == 1
    assert summary["layers"]["leaf"]["calls"] == 2
    outer = summary["layers"]["outer"]
    assert outer["self_s"] == outer["total_s"] - summary["layers"]["leaf"]["total_s"]


def test_smoke_runs_every_workload_untraced_and_traced():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert [(r["workload"], r["trace"]) for r in results] == [
        (w, t) for w in WORKLOADS for t in (0, 1)
    ]
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        if result["trace"]:
            assert result["metrics"]["runner.emit_csv_s"]["value"] > 0.0
        else:
            assert result["metrics"]["norm_wall_s"]["value"] > 0.0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "memory-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
