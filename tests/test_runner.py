"""Config validation, experiment dispatch, artifact formats, and the CLI.

The contract under test: a config plus a seed fully determines every output
byte, and every emitted CSV carries enough of the config to reproduce
itself.
"""

import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
import xml.dom.minidom
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from pulseguard import BathSpec, PulseTrainSpec, ShotNoiseSpec, SignalFamily, SweepSpec, runner
from pulseguard.cli import main
from pulseguard.ensemble import _BLOCK
from pulseguard.numerics import NumericOverflowError, TimeGrid
from pulseguard.qsd import DEFAULT_STATES, solve_kernel_riccati
from pulseguard.runner import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    emit_plot,
    load_config,
    read_embedded_config,
    run_experiment,
)

MEMORY_RAW = {
    "kind": "memory-qsd",
    "grid": {"t_max": 2.0, "n_steps": 400},
    "bath": {"coupling": 1.0, "cutoff": 0.5},
    "signal": {"family": "regular", "period": 0.02, "duration": 0.01, "area": 0.2},
    "omega": 1.0,
    "states": [0.5],
    "master_seed": 0,
}

ENSEMBLE_RAW = {
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
    "omega": 1.0,
    "states": [0.5],
    "n_traj": 3,
    "master_seed": 4,
}

ADIABATIC_RAW = {
    "kind": "adiabatic",
    "grid": {"t_max": 5.0, "n_steps": 500},
    "sweep": {"passage_time": 5.0, "base_freq": 0.3},
    "signal": {"family": "none"},
    "master_seed": 0,
}


def raw(base, **overrides):
    out = copy.deepcopy(base)
    out.update(overrides)
    return out


ROOT = Path(__file__).resolve().parents[1]
# fig3's shot noise on MEMORY_RAW's grid: rate * dt = 100 * 0.005 = 0.5
COARSE_SHOT = {"family": "shot", "strength": 0.1, "rate": 100.0}
# 33 shot-noise trajectories, two blocks, of which some dip Re int F below zero
DIPPING_RAW = {
    "kind": "memory-ensemble",
    "grid": {"t_max": 10.0, "n_steps": 1000},
    "bath": {"coupling": 50.0, "cutoff": 0.1},
    "signal": {"family": "shot", "strength": 0.25, "rate": 5.0},
    "omega": 0.0,
    "n_traj": 33,
    "master_seed": 0,
}


def legacy_csv(table) -> bytes:
    """emit_csv's payload as first written: every cell a numpy scalar through f"{x:.12g}"."""
    lines = ["# metadata"]
    for key in sorted(table.metadata):
        echo = json.dumps(table.metadata[key], sort_keys=True, separators=(",", ":"))
        lines.append(f"# {key} = {echo}")
    lines.append(",".join(("t",) + tuple(table.columns)))
    if table.columns:
        cols = [np.asarray(table.data[name]) for name in table.columns]
        for i, t in enumerate(table.t):
            row = [f"{t:.12g}"] + [f"{c[i]:.12g}" for c in cols]
            lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def legacy_points(t, values) -> str:
    """emit_plot's polyline points as first written: each point through two
    closures over numpy scalars and an f-string."""
    x0, y0, x1, y1 = 50.0, 390.0, 590.0, 50.0
    span = t[-1] - t[0]

    def x_px(v):
        return x0 + (v - t[0]) / span * (x1 - x0)

    def y_px(v):
        return y0 + (v - 0.0) / (1.05 - 0.0) * (y1 - y0)

    return " ".join(f"{x_px(tv):.2f},{y_px(vv):.2f}" for tv, vv in zip(t, values))


def _with(base, section, **values):
    return {section: dict(base[section], **values)}


# inputs that once crashed with a traceback or ran without a message;
# each is (base config, top-level overrides, field the ConfigError names)
MISTYPED = [
    (MEMORY_RAW, {"states": []}, "states"),
    (MEMORY_RAW, {"states": 0.5}, "states"),
    (MEMORY_RAW, {"states": [True]}, "states[0]"),
    (MEMORY_RAW, _with(MEMORY_RAW, "grid", n_steps=100.7), "grid.n_steps"),
    (MEMORY_RAW, _with(MEMORY_RAW, "grid", n_steps=True), "grid.n_steps"),
    (MEMORY_RAW, _with(MEMORY_RAW, "grid", t_max="1.0"), "grid.t_max"),
    (MEMORY_RAW, _with(MEMORY_RAW, "signal", period="0.02"), "signal.period"),
    (MEMORY_RAW, _with(MEMORY_RAW, "signal", area=True), "signal.area"),
    (MEMORY_RAW, {"omega": "abc"}, "omega"),
    (MEMORY_RAW, {"omega": None}, "omega"),
    (MEMORY_RAW, {"signal": 5}, "signal"),
    (MEMORY_RAW, {"grid": []}, "grid"),
    (MEMORY_RAW, _with(MEMORY_RAW, "bath", coupling=True), "bath.coupling"),
    (ADIABATIC_RAW, {"signal": {"family": "shot", "strength": 0.1, "rate": "5"}}, "signal.rate"),
]


# a positive t_max whose step t_max / n_steps rounds to zero
UNDERFLOWING_GRID = {"t_max": 5e-324, "n_steps": 2}


# signals the sampler cannot draw: a period that may reach zero, or a pulse
# height past the float range; each is (base, overrides, field named, test id)
UNSAMPLEABLE = [
    (ENSEMBLE_RAW, _with(ENSEMBLE_RAW, "signal", period_dev=0.05), "signal.period_dev",
     "period_dev-above-period"),
    (ENSEMBLE_RAW, _with(ENSEMBLE_RAW, "signal", period_dev=0.02), "signal.period_dev",
     "period_dev-equals-period"),
    (MEMORY_RAW, _with(MEMORY_RAW, "signal", area=1e308), "signal.area", "regular-area"),
    (ENSEMBLE_RAW, _with(ENSEMBLE_RAW, "signal", area_dev=1e308), "signal.area_dev",
     "jittered-area_dev"),
    (MEMORY_RAW, {"grid": {"t_max": 1.0, "n_steps": 1000},
                  "signal": {"family": "shot", "strength": 1e308, "rate": 5.0}},
     "signal.strength", "shot-strength"),
    # numpy's Poisson sampler refuses a mean rate * dt past ~9.2e18
    (MEMORY_RAW, {"grid": {"t_max": 1.0, "n_steps": 100},
                  "signal": {"family": "shot", "strength": 0.1, "rate": 1e300}},
     "signal.rate", "memory-shot-rate-past-poisson-limit"),
    (ADIABATIC_RAW, {"grid": {"t_max": 1.0, "n_steps": 100}, "sweep": {"passage_time": 1.0},
                     "signal": {"family": "shot", "strength": 0.1, "rate": 1e300}},
     "signal.rate", "adiabatic-shot-rate-past-poisson-limit"),
]

# shot noise whose heights count * strength / dt overflow once a cell holds
# enough arrivals, as (base, overrides); each run is one trajectory
# each rate is finite, but the correlation weight coupling * cutoff / 2 is not
OVERFLOWING_BATH = {"coupling": 1e200, "cutoff": 1e200}

OVERFLOWING_SHOT = [
    (MEMORY_RAW, {"grid": {"t_max": 1.0, "n_steps": 100}, "master_seed": 0,
                  "signal": {"family": "shot", "strength": 1e305, "rate": 1000.0}}),
    (ADIABATIC_RAW, {"grid": {"t_max": 1.0, "n_steps": 100}, "sweep": {"passage_time": 1.0},
                     "signal": {"family": "shot", "strength": 1e305, "rate": 1000.0}}),
]


# configs built in Python, which once ran or crashed past from_dict's rules;
# each is (ExperimentConfig arguments, what the ConfigError names, test id)
GRID_10 = TimeGrid(1.0, 10)
NO_CONTROL = SignalFamily(kind="none")
BATH = BathSpec(coupling=1.0, cutoff=0.5)
DIRECT = [
    (dict(kind="memory-qsd", grid=GRID_10, signal=NO_CONTROL), "bath", "no-bath"),
    (dict(kind="adiabatic", grid=GRID_10, signal=NO_CONTROL), "sweep", "no-sweep"),
    (dict(kind="memory-qs", grid=GRID_10, signal=NO_CONTROL, bath=BATH), "memory-qs",
     "unknown-kind"),
    (dict(kind="memory-qsd", grid=GRID_10, bath=BATH,
          signal=SignalFamily(kind="regular", pulse=PulseTrainSpec(0.02, 0.01, 0.2))),
     "signal.duration", "pulse-narrower-than-a-cell"),
    (dict(kind="adiabatic", grid=TimeGrid(10.0, 100), signal=NO_CONTROL,
          sweep=SweepSpec(passage_time=5.0, base_freq=0.3)),
     "grid.t_max", "sweep-past-passage-time"),
]


def run_python(*args):
    """`python args` in a fresh process with the package on its path, so that
    no test's warning filters apply; the finished process, stdout and stderr
    as text."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli(*args):
    """`python -m pulseguard args`, as run_python runs it."""
    return run_python("-m", "pulseguard", *args)


def test_public_names_resolve_and_leave_out_the_oracles():
    import pulseguard

    assert [name for name in pulseguard.__all__ if not hasattr(pulseguard, name)] == []
    # the oracles and the sampling pass-through are imported from their modules
    module_only = {"solve_kernel_quadrature", "tdse_oracle", "sample_family"}
    assert not module_only & set(pulseguard.__all__)


class TestConfigValidation:
    def test_minimal_memory_config(self):
        config = ExperimentConfig.from_dict(copy.deepcopy(MEMORY_RAW))
        assert config.kind == "memory-qsd"
        assert config.grid == TimeGrid(2.0, 400)
        assert config.omega == 1.0
        assert config.states == (0.5,)

    def test_unresolved_shot_noise_warns_at_config_time(self):
        with pytest.warns(RuntimeWarning, match=r"signal\.rate = 100\.0 .* grid step"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, signal=COARSE_SHOT))

    @pytest.mark.parametrize("path", ["from_dict", "replace"])
    def test_shot_noise_warning_points_at_the_caller(self, path):
        # rate * dt = 2.5; a library caller is shown its own line, not the package's
        config = ExperimentConfig.from_dict(copy.deepcopy(MEMORY_RAW))
        shot = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=500.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if path == "from_dict":
                ExperimentConfig.from_dict(raw(MEMORY_RAW, signal=dict(COARSE_SHOT, rate=500.0)))
            else:
                dataclasses.replace(config, signal=shot)
        assert [w.filename for w in caught] == [__file__]

    def test_shot_noise_at_the_limit_is_silent(self):
        config = load_config(ROOT / "configs" / "fig3.json")
        assert config.signal.shot.rate * config.grid.dt == 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_config(ROOT / "configs" / "fig3.json")

    def test_default_state_grid_when_states_omitted(self):
        base = copy.deepcopy(MEMORY_RAW)
        del base["states"]
        config = ExperimentConfig.from_dict(base)
        assert config.states == DEFAULT_STATES
        assert config.resolved()["states"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            ExperimentConfig.from_dict([1, 2])

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match="unknown key.*frobnicate"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, frobnicate=1))

    def test_memory_rejects_sweep_key(self):
        with pytest.raises(ConfigError, match="sweep"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, sweep={"passage_time": 1.0}))

    def test_adiabatic_rejects_bath_key(self):
        with pytest.raises(ConfigError, match="bath"):
            ExperimentConfig.from_dict(
                raw(ADIABATIC_RAW, bath={"coupling": 1.0, "cutoff": 0.5})
            )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, kind="memory-exact"))

    def test_missing_kind(self):
        base = copy.deepcopy(MEMORY_RAW)
        del base["kind"]
        with pytest.raises(ConfigError, match="missing required key 'kind'"):
            ExperimentConfig.from_dict(base)

    def test_missing_grid(self):
        base = copy.deepcopy(MEMORY_RAW)
        del base["grid"]
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_dict(base)

    def test_missing_bath_for_memory(self):
        base = copy.deepcopy(MEMORY_RAW)
        del base["bath"]
        with pytest.raises(ConfigError, match="bath"):
            ExperimentConfig.from_dict(base)

    def test_missing_sweep_for_adiabatic(self):
        base = copy.deepcopy(ADIABATIC_RAW)
        del base["sweep"]
        with pytest.raises(ConfigError, match="sweep"):
            ExperimentConfig.from_dict(base)

    def test_unknown_grid_key(self):
        with pytest.raises(ConfigError, match="grid: unknown"):
            ExperimentConfig.from_dict(
                raw(MEMORY_RAW, grid={"t_max": 1.0, "n_steps": 10, "dt": 0.1})
            )

    def test_invalid_grid_values(self):
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, grid={"t_max": 1.0, "n_steps": 0}))

    def test_grid_step_underflow_rejected(self):
        with pytest.raises(ConfigError, match="grid: t_max / n_steps underflows"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, grid=UNDERFLOWING_GRID))

    @pytest.mark.parametrize("base", [MEMORY_RAW, raw(MEMORY_RAW, kind="memory-me2"),
                                      ENSEMBLE_RAW, ADIABATIC_RAW],
                             ids=["memory-qsd", "memory-me2", "memory-ensemble", "adiabatic"])
    def test_grid_past_numpys_array_limit_rejected(self, base):
        # 2**61 cells: every kind's largest array is past numpy's limit;
        # the rule is arithmetic, so nothing of that size is allocated
        grid = {"t_max": base["grid"]["t_max"], "n_steps": 2**61}
        with pytest.raises(ConfigError, match=r"grid\.n_steps = 2305843009213693952 is too "
                                              r"large: the run would form an array of \d+ bytes"):
            ExperimentConfig.from_dict(raw(base, grid=grid))

    @pytest.mark.parametrize("base", [ENSEMBLE_RAW, raw(ADIABATIC_RAW, signal=COARSE_SHOT)],
                             ids=["memory-ensemble", "adiabatic"])
    def test_grid_whose_full_block_is_past_numpys_limit_rejected(self, base):
        # at 2**54 cells a block of 31 trajectories fits numpy's limit and
        # one of 32 does not; more trajectories still make blocks of 32
        grid = {"t_max": base["grid"]["t_max"], "n_steps": 2**54}
        for n_traj in (32, 64):
            with pytest.raises(ConfigError, match=r"grid\.n_steps = 18014398509481984 "):
                ExperimentConfig.from_dict(raw(base, grid=grid, n_traj=n_traj))
        ExperimentConfig.from_dict(raw(base, grid=grid, n_traj=31))
        # a deterministic control runs once, whatever n_traj
        ExperimentConfig.from_dict(raw(base, grid=grid, n_traj=64, signal={"family": "none"}))

    def test_array_limit_is_numpys(self):
        limit = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(limit // 16 + 1, dtype=complex)

    def test_largest_array_of_a_block_is_its_kernel(self):
        # 250 cells make three chunks of 100, so the kernel's buffer has 301 nodes
        config = ExperimentConfig.from_dict(raw(ENSEMBLE_RAW, grid={"t_max": 2.0, "n_steps": 250}))
        kernel = solve_kernel_riccati(np.ones((3, 250)), config.bath, config.grid).values
        assert kernel.base.nbytes == runner._largest_array_bytes(config) == 16 * 3 * 301

    def test_invalid_bath_values(self):
        with pytest.raises(ConfigError, match="bath"):
            ExperimentConfig.from_dict(
                raw(MEMORY_RAW, bath={"coupling": -1.0, "cutoff": 0.5})
            )

    def test_overflowing_bath_weight_rejected(self):
        with pytest.raises(ConfigError, match="bath: weight"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, bath=OVERFLOWING_BATH))

    def test_invalid_sweep_values(self):
        with pytest.raises(ConfigError, match="sweep"):
            ExperimentConfig.from_dict(
                raw(ADIABATIC_RAW, sweep={"passage_time": 0.0, "base_freq": 0.3})
            )

    def test_sweep_run_past_passage_time_rejected(self):
        with pytest.raises(ConfigError, match="grid.t_max"):
            ExperimentConfig.from_dict(
                raw(ADIABATIC_RAW, grid={"t_max": 5.5, "n_steps": 550})
            )

    def test_sweep_end_equal_up_to_round_off_accepted(self):
        t_max = 5.0 * (1.0 + 1e-13)
        config = ExperimentConfig.from_dict(
            raw(ADIABATIC_RAW, grid={"t_max": t_max, "n_steps": 500})
        )
        assert config.grid.t_max == t_max

    def test_unknown_signal_family(self):
        with pytest.raises(ConfigError, match="unknown family"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, signal={"family": "telegraph"}))

    def test_signal_missing_required_field(self):
        with pytest.raises(ConfigError, match="signal: missing"):
            ExperimentConfig.from_dict(
                raw(MEMORY_RAW, signal={"family": "regular", "period": 0.02, "area": 0.2})
            )

    def test_signal_rejects_foreign_field(self):
        with pytest.raises(ConfigError, match="signal: unknown"):
            ExperimentConfig.from_dict(
                raw(MEMORY_RAW, signal={"family": "none", "rate": 10.0})
            )

    def test_invalid_pulse_geometry(self):
        with pytest.raises(ConfigError, match="signal"):
            ExperimentConfig.from_dict(
                raw(
                    MEMORY_RAW,
                    signal={"family": "regular", "period": 0.02, "duration": 0.03, "area": 0.2},
                )
            )

    def test_state_probability_bounds(self):
        for value in (1.5, -0.1):
            with pytest.raises(ConfigError, match=r"states\[1\]"):
                ExperimentConfig.from_dict(raw(MEMORY_RAW, states=[0.5, value]))
        config = ExperimentConfig.from_dict(raw(MEMORY_RAW, states=[0, 1]))
        assert config.states == (0.0, 1.0)
        assert config.resolved()["states"] == [0.0, 1.0]

    def test_n_traj_bounds(self):
        with pytest.raises(ConfigError, match="n_traj"):
            ExperimentConfig.from_dict(raw(ENSEMBLE_RAW, n_traj=0))
        with pytest.raises(ConfigError, match="n_traj"):
            ExperimentConfig.from_dict(raw(ADIABATIC_RAW, n_traj=-1))

    def test_workers_bounds(self):
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, workers=0))

    @pytest.mark.parametrize("value", ["abc", "3", 2.7, 2.0, True, None])
    def test_n_traj_must_be_an_integer(self, value):
        for base in (ENSEMBLE_RAW, ADIABATIC_RAW):
            with pytest.raises(ConfigError, match="n_traj"):
                ExperimentConfig.from_dict(raw(base, n_traj=value))

    @pytest.mark.parametrize("value", ["x", "0", 1.5, 0.0, False, -1])
    def test_master_seed_must_be_a_nonnegative_integer(self, value):
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, master_seed=value))

    @pytest.mark.parametrize("value", ["x", "2", 2.7, 2.0, True])
    def test_workers_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, workers=value))

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_with_defect_must_be_a_boolean(self, value):
        with pytest.raises(ConfigError, match="with_defect"):
            ExperimentConfig.from_dict(raw(ADIABATIC_RAW, with_defect=value))

    @pytest.mark.parametrize("base, overrides, field", MISTYPED, ids=[c[2] for c in MISTYPED])
    def test_mistyped_value_names_the_field(self, base, overrides, field):
        with pytest.raises(ConfigError, match=re.escape(field)) as info:
            ExperimentConfig.from_dict(raw(base, **overrides))
        message = str(info.value)
        assert "grid: grid" not in message and "signal: signal" not in message

    @pytest.mark.parametrize("kwargs, field", [c[:2] for c in DIRECT],
                             ids=[c[2] for c in DIRECT])
    def test_direct_construction_obeys_every_rule(self, kwargs, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            ExperimentConfig(**kwargs)

    def test_direct_construction_defaults_to_the_state_grid(self):
        config = ExperimentConfig(kind="memory-qsd", grid=GRID_10, signal=NO_CONTROL, bath=BATH)
        assert config.states == DEFAULT_STATES

    @pytest.mark.parametrize("base, direct", [
        (MEMORY_RAW, dict(kind="memory-qsd", grid=TimeGrid(2.0, 400), bath=BATH,
                          signal=SignalFamily(kind="regular",
                                              pulse=PulseTrainSpec(0.02, 0.01, 0.2)))),
        (ADIABATIC_RAW, dict(kind="adiabatic", grid=TimeGrid(5.0, 500), signal=NO_CONTROL,
                             sweep=SweepSpec(passage_time=5.0, base_freq=0.3))),
    ], ids=["memory-qsd", "adiabatic"])
    def test_direct_construction_resolves_as_from_dict(self, base, direct):
        """Both ways fill in the same defaults, omega and states included."""
        twin = {key: value for key, value in base.items() if key not in ("omega", "states")}
        assert ExperimentConfig(**direct).resolved() == ExperimentConfig.from_dict(twin).resolved()

    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_replace_obeys_the_sweep_end(self):
        config = load_config(ROOT / "configs" / "fig4.json")
        with pytest.raises(ConfigError, match=r"grid\.t_max = 10\.0 runs past sweep\.passage"):
            dataclasses.replace(config, grid=TimeGrid(10.0, 100))

    @pytest.mark.parametrize("value", [math.nan, math.inf, "1.0", True])
    def test_replace_obeys_the_omega_rule(self, value):
        config = load_config(ROOT / "configs" / "fig1.json")
        with pytest.raises(ConfigError, match=r"^omega must be a finite number"):
            dataclasses.replace(config, omega=value)

    def test_an_integer_omega_echoes_as_the_loaded_float(self):
        config = load_config(ROOT / "configs" / "fig1.json")
        replaced = dataclasses.replace(config, omega=1)
        assert replaced.resolved() == config.resolved()
        # the echo in a CSV's header: 1 and 1.0 would write different bytes
        assert json.dumps(replaced.resolved()) == json.dumps(config.resolved())

    @pytest.mark.parametrize("family", ["regular", "jittered", "chaotic"])
    def test_pulse_narrower_than_a_cell_rejected(self, family):
        signal = {"family": family, "period": 0.02, "duration": 0.01, "area": 0.2}
        with pytest.raises(ConfigError, match=r"signal\.duration.*dt"):
            ExperimentConfig.from_dict(
                raw(MEMORY_RAW, grid={"t_max": 10.0, "n_steps": 100}, signal=signal)
            )

    @pytest.mark.parametrize("base, overrides, field",
                             [c[:3] for c in UNSAMPLEABLE], ids=[c[3] for c in UNSAMPLEABLE])
    def test_unsampleable_signal_rejected(self, base, overrides, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            ExperimentConfig.from_dict(raw(base, **overrides))

    def test_period_dev_just_below_period_accepted(self):
        period_dev = math.nextafter(0.02, 0.0)
        config = ExperimentConfig.from_dict(
            raw(ENSEMBLE_RAW, **_with(ENSEMBLE_RAW, "signal", period_dev=period_dev))
        )
        assert config.signal.jitter.period_dev == period_dev
        assert run_experiment(config).columns == ("mean", "stderr")

    def test_pulse_of_one_cell_accepted(self):
        signal = {"family": "regular", "period": 0.02, "duration": 0.01, "area": 0.2}
        config = ExperimentConfig.from_dict(
            raw(MEMORY_RAW, grid={"t_max": 1.0, "n_steps": 100}, signal=signal)
        )
        assert config.signal.pulse.duration == config.grid.dt

    @pytest.mark.parametrize(
        "overrides, field",
        [({"signal": {"family": "shot", "strength": 0.1, "rate": math.inf}}, "signal.rate"),
         ({"signal": {"family": "shot", "strength": -math.inf, "rate": 5.0}}, "signal.strength"),
         ({"signal": {"family": "shot", "strength": 0.1, "rate": math.nan}}, "signal.rate"),
         ({"omega": math.inf}, "omega"),
         ({"omega": -math.inf}, "omega")],
    )
    def test_non_finite_values_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, **overrides))


class TestResolvedConfig:
    def test_round_trip_is_idempotent(self):
        for base in (MEMORY_RAW, ENSEMBLE_RAW, ADIABATIC_RAW):
            config = ExperimentConfig.from_dict(copy.deepcopy(base))
            once = config.resolved()
            twice = ExperimentConfig.from_dict(copy.deepcopy(once)).resolved()
            assert once == twice

    def test_scheduling_fields_excluded(self):
        config = ExperimentConfig.from_dict(raw(MEMORY_RAW, workers=4))
        resolved = config.resolved()
        assert "workers" not in resolved
        with pytest.raises(ConfigError, match="output"):
            ExperimentConfig.from_dict(raw(MEMORY_RAW, output="somewhere.csv"))

    def test_float_fields_echo_as_floats(self):
        signal = {"family": "shot", "strength": 1, "rate": 100}
        # rate * dt = 0.5 on MEMORY_RAW's grid, so loading warns
        with pytest.warns(RuntimeWarning, match="shot rate"):
            config = ExperimentConfig.from_dict(raw(MEMORY_RAW, signal=signal))
        resolved = config.resolved()
        assert resolved["signal"] == {"family": "shot", "strength": 1.0, "rate": 100.0}
        assert type(resolved["signal"]["rate"]) is float
        assert type(resolved["grid"]["n_steps"]) is int

    def test_defaults_are_echoed(self):
        signal = {"family": "chaotic", "period": 0.02, "duration": 0.01, "area": 0.2}
        resolved = ExperimentConfig.from_dict(raw(MEMORY_RAW, signal=signal)).resolved()
        assert resolved["signal"] == dict(signal, logistic_r=3.9, seed_intensity=0.5)
        resolved = ExperimentConfig.from_dict(copy.deepcopy(ADIABATIC_RAW)).resolved()
        assert resolved["n_traj"] == 1 and resolved["with_defect"] is False


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MEMORY_RAW))
        assert load_config(path).kind == "memory-qsd"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_overrides_replace_the_file_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ENSEMBLE_RAW))
        config = load_config(path, master_seed=9, workers=2)
        assert (config.master_seed, config.workers) == (9, 2)
        assert config == dataclasses.replace(load_config(path), master_seed=9, workers=2)

    def test_an_override_obeys_the_config_rules(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ENSEMBLE_RAW))
        with pytest.raises(ConfigError, match=r"^config: workers must be an integer >= 1, got 0$"):
            load_config(path, workers=0)


class TestResultTable:
    def test_time_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ResultTable(np.array([0.0, 1.0, 1.0]), {}, {})

    def test_column_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            ResultTable(np.array([0.0, 1.0]), {"a": np.zeros(3)}, {})


DISPATCH_SIGNALS = {
    "none": {"family": "none"},
    "regular": MEMORY_RAW["signal"],
    "jittered": ENSEMBLE_RAW["signal"],
    "shot": {"family": "shot", "strength": 0.1, "rate": 20.0},
    "chaotic": {**MEMORY_RAW["signal"], "family": "chaotic", "logistic_r": 3.9,
                "seed_intensity": 0.5},
}

# (kind, family, n_traj, with_defect) -> CSV columns; an ensemble is
# memory-ensemble, or a stochastic family run with n_traj > 1
DISPATCH = [
    ("memory-qsd", "regular", 1, False, ("qsd",)),
    ("memory-me2", "regular", 1, False, ("me2",)),
    ("memory-ensemble", "jittered", 3, False, ("mean", "stderr")),
    ("memory-ensemble", "jittered", 1, False, ("mean", "stderr")),
    ("adiabatic", "none", 1, False, ("psi0",)),
    ("adiabatic", "none", 1, True, ("psi0", "defect")),
    ("adiabatic", "regular", 4, False, ("psi0",)),
    ("adiabatic", "regular", 4, True, ("psi0", "defect")),
    ("adiabatic", "shot", 1, True, ("psi0", "defect")),
    ("adiabatic", "shot", 3, False, ("mean", "stderr")),
    ("adiabatic", "shot", 3, True, ("mean", "stderr", "defect")),
]


class TestRunExperiment:
    def test_decoupled_bath_gives_flat_unity(self):
        config = ExperimentConfig.from_dict(
            raw(MEMORY_RAW, bath={"coupling": 0.0, "cutoff": 0.5})
        )
        table = run_experiment(config)
        assert table.columns == ("qsd",)
        np.testing.assert_allclose(table.data["qsd"], 1.0, atol=1e-12)

    def test_me2_kind_selects_born_column(self):
        config = ExperimentConfig.from_dict(raw(MEMORY_RAW, kind="memory-me2"))
        table = run_experiment(config)
        assert table.columns == ("me2",)
        assert table.data["me2"][0] == pytest.approx(1.0)

    def test_ensemble_columns_and_bounds(self):
        config = ExperimentConfig.from_dict(copy.deepcopy(ENSEMBLE_RAW))
        table = run_experiment(config)
        assert table.columns == ("mean", "stderr")
        assert np.all(table.data["mean"] <= 1.0 + 1e-12)
        assert np.all(table.data["mean"] >= 0.0)
        assert np.all(table.data["stderr"] >= 0.0)

    def test_adiabatic_single_trajectory(self):
        config = ExperimentConfig.from_dict(raw(ADIABATIC_RAW, with_defect=True))
        table = run_experiment(config)
        assert table.columns == ("psi0", "defect")
        assert table.data["psi0"][0] == pytest.approx(1.0)
        assert table.data["defect"][0] == pytest.approx(0.0)

    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_adiabatic_ensemble_columns(self):
        config = ExperimentConfig.from_dict(
            raw(
                ADIABATIC_RAW,
                signal={"family": "shot", "strength": 0.1, "rate": 20.0},
                n_traj=3,
                with_defect=True,
            )
        )
        table = run_experiment(config)
        assert table.columns == ("mean", "stderr", "defect")

    @pytest.mark.filterwarnings("ignore:shot rate")
    @pytest.mark.parametrize("kind, family, n_traj, with_defect, columns", DISPATCH,
                             ids=["-".join(map(str, case[:4])) for case in DISPATCH])
    def test_dispatch_columns(self, kind, family, n_traj, with_defect, columns):
        if kind == "adiabatic":
            config = raw(ADIABATIC_RAW, signal=DISPATCH_SIGNALS[family], n_traj=n_traj,
                         with_defect=with_defect)
        else:
            config = raw(MEMORY_RAW, kind=kind, signal=DISPATCH_SIGNALS[family])
            if kind == "memory-ensemble":
                config["n_traj"] = n_traj
        table = run_experiment(ExperimentConfig.from_dict(config))
        assert table.columns == columns
        if "stderr" in columns and n_traj == 1:
            assert np.all(table.data["stderr"] == 0.0)

    @pytest.mark.parametrize("family", ["none", "regular", "chaotic"])
    def test_deterministic_ensemble_runs_one_trajectory(self, family, monkeypatch):
        """Every trajectory of a deterministic control has the same rows, so a
        memory-ensemble of it runs one: its mean is the memory-qsd curve bit
        for bit and its stderr is zero."""
        signal = DISPATCH_SIGNALS[family]
        single = run_experiment(ExperimentConfig.from_dict(raw(MEMORY_RAW, signal=signal)))
        ran = []
        block = runner._block

        def counted(config, ks):
            ran.extend(ks)
            return block(config, ks)

        monkeypatch.setattr(runner, "_block", counted)
        config = raw(MEMORY_RAW, kind="memory-ensemble", signal=signal, n_traj=40)
        table = run_experiment(ExperimentConfig.from_dict(config))
        assert ran == [0]
        assert table.columns == ("mean", "stderr")
        assert table.data["mean"].tobytes() == single.data["qsd"].tobytes()
        assert np.all(table.data["stderr"] == 0.0)

    def test_metadata_carries_config_and_version(self):
        config = ExperimentConfig.from_dict(copy.deepcopy(MEMORY_RAW))
        table = run_experiment(config)
        assert table.metadata["config"] == config.resolved()
        assert isinstance(table.metadata["version"], str)

    def test_workers_argument_validated(self):
        config = ExperimentConfig.from_dict(copy.deepcopy(MEMORY_RAW))
        with pytest.raises(ConfigError, match="workers"):
            dataclasses.replace(config, workers=0)

    def test_worker_count_does_not_change_numbers(self):
        config = ExperimentConfig.from_dict(copy.deepcopy(ENSEMBLE_RAW))
        serial = run_experiment(dataclasses.replace(config, workers=1))
        pooled = run_experiment(dataclasses.replace(config, workers=2))
        np.testing.assert_array_equal(serial.data["mean"], pooled.data["mean"])
        np.testing.assert_array_equal(serial.data["stderr"], pooled.data["stderr"])

    def test_single_block_ensemble_starts_no_pool(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_dict(copy.deepcopy(ENSEMBLE_RAW))
        emit_csv(run_experiment(config), tmp_path / "w1.csv")

        def no_pool(*args, **kwargs):
            raise AssertionError("three trajectories make one block; no pool is needed")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        emit_csv(run_experiment(dataclasses.replace(config, workers=2)), tmp_path / "w2.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    @pytest.mark.parametrize("workers, pool_size", [(64, 3), (2, 2)])
    def test_pool_is_sized_by_the_blocks(self, tmp_path, monkeypatch, workers, pool_size):
        # two batched blocks and a remainder block of three
        config = ExperimentConfig.from_dict(raw(ENSEMBLE_RAW, n_traj=2 * _BLOCK + 3))
        emit_csv(run_experiment(config), tmp_path / "w1.csv")
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def shutdown(self, wait=True):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        config = dataclasses.replace(config, workers=workers)
        emit_csv(run_experiment(config), tmp_path / "pooled.csv")
        assert sizes == [pool_size]
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:shot rate")
    @pytest.mark.parametrize("base, kind, family", [
        (ENSEMBLE_RAW, "memory-ensemble", "jittered"),
        (ENSEMBLE_RAW, "memory-ensemble", "shot"),
        (MEMORY_RAW, "memory-me2", "shot"),
        (ADIABATIC_RAW, "adiabatic", "shot"),
    ])
    def test_a_row_does_not_depend_on_its_block(self, base, kind, family):
        """Trajectory k's rows, run alone, are row k of a full block bit for bit."""
        config = ExperimentConfig.from_dict(
            raw(base, kind=kind, signal=DISPATCH_SIGNALS[family], master_seed=5)
        )
        full = runner._block(config, range(_BLOCK))
        for k in range(_BLOCK):
            assert runner._block(config, range(k, k + 1))[0].tobytes() == full[k].tobytes()

    def test_memory_qsd_is_the_first_ensemble_trajectory(self):
        """Both kinds run the same trajectory function; n_traj = 1 is bitwise one curve."""
        single = raw(ENSEMBLE_RAW, kind="memory-qsd", states=[0.2, 0.5, 0.9])
        del single["n_traj"]
        ensemble = raw(ENSEMBLE_RAW, n_traj=1, states=[0.2, 0.5, 0.9])
        qsd = run_experiment(ExperimentConfig.from_dict(single)).data["qsd"]
        mean = run_experiment(ExperimentConfig.from_dict(ensemble)).data["mean"]
        np.testing.assert_array_equal(qsd, mean)

    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_adiabatic_defect_csv_identical_in_a_process_pool(self, tmp_path):
        # two blocks, so both workers get one
        config = ExperimentConfig.from_dict(
            raw(
                ADIABATIC_RAW,
                signal={"family": "shot", "strength": 0.1, "rate": 20.0},
                n_traj=_BLOCK + 2,
                with_defect=True,
            )
        )
        emit_csv(run_experiment(dataclasses.replace(config, workers=1)), tmp_path / "w1.csv")
        emit_csv(run_experiment(dataclasses.replace(config, workers=2)), tmp_path / "w2.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_memory_ensemble_csv_identical_in_a_process_pool(self, tmp_path):
        # two batched blocks and a remainder block of three
        config = ExperimentConfig.from_dict(raw(ENSEMBLE_RAW, n_traj=2 * _BLOCK + 3))
        emit_csv(run_experiment(dataclasses.replace(config, workers=1)), tmp_path / "w1.csv")
        emit_csv(run_experiment(dataclasses.replace(config, workers=2)), tmp_path / "w2.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_divergent_kernel_reported_with_context(self):
        config = ExperimentConfig.from_dict(
            raw(
                MEMORY_RAW,
                grid={"t_max": 20.0, "n_steps": 4000},
                signal={"family": "none"},
                omega=0.0,
            )
        )
        with pytest.raises(NumericOverflowError, match="memory-qsd experiment"):
            run_experiment(config)


class TestCsvFormat:
    @pytest.fixture()
    def table(self):
        config = ExperimentConfig.from_dict(copy.deepcopy(ENSEMBLE_RAW))
        return run_experiment(config)

    def test_layout(self, table, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# metadata"
        assert lines[1].startswith("# config = ")
        assert lines[2].startswith("# version = ")
        assert lines[3] == "t,mean,stderr"
        assert len(lines) == 4 + table.n_rows

    def test_values_round_trip_at_12_digits(self, table, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if not line.startswith("#") and not line.startswith("t,")
        ]
        parsed = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_allclose(parsed[:, 0], table.t, rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(parsed[:, 1], table.data["mean"], rtol=1e-11)

    def test_line_endings_are_lf(self, table, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        payload = path.read_bytes()
        assert b"\r" not in payload
        assert payload.endswith(b"\n")

    def test_no_columns_writes_header_only(self, tmp_path):
        table = ResultTable(np.array([0.0, 1.0]), {}, {"config": {}})
        path = tmp_path / "empty.csv"
        emit_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "t"

    def test_re_emission_is_byte_identical(self, table, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, a)
        emit_csv(table, b)
        assert a.read_bytes() == b.read_bytes()

    def test_embedded_config_reproduces_file(self, table, tmp_path):
        """An output file is a complete experiment record: re-running the
        config it embeds regenerates it byte for byte."""
        first = tmp_path / "first.csv"
        emit_csv(table, first)
        config = read_embedded_config(first)
        second = tmp_path / "second.csv"
        emit_csv(run_experiment(config), second)
        assert first.read_bytes() == second.read_bytes()

    def test_special_values_keep_the_numpy_scalar_bytes(self, tmp_path):
        values = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e16, 0.1 + 0.2])
        table = ResultTable(np.arange(7.0), {"x": values}, {"config": {}})
        emit_csv(table, tmp_path / "special.csv")
        assert (tmp_path / "special.csv").read_bytes() == legacy_csv(table)

    def emitted(self, table, tmp_path) -> set:
        """The distinct payloads of three writes of `table`: the first
        builds its template where none is kept, the later ones reuse it."""
        payloads = set()
        for _ in range(3):
            emit_csv(table, tmp_path / "out.csv")
            payloads.add((tmp_path / "out.csv").read_bytes())
        return payloads

    @pytest.fixture()
    def fresh_templates(self):
        runner._body_format.cache_clear()

    @pytest.mark.parametrize("t", [
        np.arange(300) * (1e-7 / 3),
        1e13 + np.arange(300) * 0.37,
        np.linspace(0.0, 10.0, 301) / 7.0,
    ], ids=["tiny", "huge", "twelve-digits"])
    def test_times_in_any_form_keep_the_numpy_scalar_bytes(self, t, tmp_path):
        values = np.sin(np.arange(len(t)) * 0.1)
        table = ResultTable(t, {"x": values, "y": values / 3}, {"config": {}})
        assert self.emitted(table, tmp_path) == {legacy_csv(table)}

    def test_grids_of_one_length_keep_their_own_times(self, tmp_path):
        values = np.linspace(0.0, 1.0, 101)
        for t in (np.linspace(0.0, 1.0, 101), np.linspace(0.0, 2.0, 101)):
            table = ResultTable(t, {"x": values}, {"config": {}})
            assert self.emitted(table, tmp_path) == {legacy_csv(table)}

    def test_a_grid_written_once_keeps_its_template(self, fresh_templates, tmp_path):
        table = ResultTable(np.linspace(0.0, 1.0, 101), {"x": np.ones(101)}, {"config": {}})
        emit_csv(table, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == legacy_csv(table)
        assert runner._body_format.cache_info().currsize == 1

    def test_one_grid_with_any_column_count(self, fresh_templates, tmp_path):
        t = np.linspace(0.0, 3.0, 257)
        columns = {name: np.cos(t * k) for k, name in enumerate("abc", start=1)}
        for count in (1, 2, 3, 1):
            table = ResultTable(t, dict(list(columns.items())[:count]), {"config": {}})
            assert self.emitted(table, tmp_path) == {legacy_csv(table)}
        # one template per column count, built on its first write; the other nine reuse one
        info = runner._body_format.cache_info()
        assert (info.misses, info.hits) == (3, 9)

    @pytest.mark.parametrize("names", [("n",), ("f",), ("n", "f")])
    def test_int_and_float32_columns_keep_the_numpy_scalar_bytes(self, names, tmp_path):
        t = np.linspace(0.0, 1.0, 64)
        data = {"n": np.arange(64) * 987654321012345 - 3,
                "f": (np.arange(64) / 7.0).astype(np.float32)}
        table = ResultTable(t, {name: data[name] for name in names}, {"config": {}})
        assert self.emitted(table, tmp_path) == {legacy_csv(table)}

    def test_templates_are_bounded(self, fresh_templates, tmp_path):
        for n_rows in range(10, 20):
            table = ResultTable(np.arange(float(n_rows)), {"x": np.ones(n_rows)},
                                {"config": {}})
            assert self.emitted(table, tmp_path) == {legacy_csv(table)}
        assert runner._body_format.cache_info().currsize == 8

    def test_a_large_body_builds_no_template(self, fresh_templates, monkeypatch, tmp_path):
        monkeypatch.setattr(runner, "_CACHED_CELLS", 2 * 100)
        for n_rows in (100, 101):
            table = ResultTable(np.linspace(0.0, 1.0, n_rows), {"x": np.ones(n_rows)},
                                {"config": {}})
            assert self.emitted(table, tmp_path) == {legacy_csv(table)}
        # 100 rows of t and x sit at the bound and 101 above it, so only the
        # first template is kept
        info = runner._body_format.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_missing_embedded_config_rejected(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("t,x\n0,1\n")
        with pytest.raises(ConfigError, match="no embedded config"):
            read_embedded_config(path)

    def test_corrupt_embedded_config_rejected(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text('# metadata\n# config = {"kind": \nt,x\n0,1\n')
        with pytest.raises(ConfigError, match="not valid JSON") as exc:
            read_embedded_config(path)
        assert str(path) in str(exc.value)

    def test_result_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# metadata\n# note = \xe9t\xe9\nt,x\n0,1\n")
        with pytest.raises(ConfigError, match="not UTF-8") as exc:
            read_embedded_config(path)
        assert str(path) in str(exc.value)

    def test_missing_result_rejected(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ConfigError, match="cannot read") as exc:
            read_embedded_config(path)
        assert str(path) in str(exc.value)


class TestSvgPlot:
    @pytest.fixture()
    def table(self):
        t = np.linspace(0.0, 1.0, 50)
        return ResultTable(
            t,
            {"a": np.cos(t) ** 2, "b": np.full(50, 0.25)},
            {"config": {}},
        )

    def test_is_valid_xml_with_one_polyline_per_column(self, table, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(table, path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == len(table.columns)

    def test_title_rendered_when_given(self, table, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(table, path, title="survival curves")
        texts = [
            el.text
            for el in ET.fromstring(path.read_text()).iter()
            if el.tag.endswith("text")
        ]
        assert "survival curves" in texts

    def test_title_and_column_names_are_escaped(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        table = ResultTable(t, {"F < 1 & more": np.full(5, 0.5), "b>a": np.full(5, 0.25)}, {})
        path = tmp_path / "plot.svg"
        emit_plot(table, path, title="F < 1 & more")
        texts = [node.firstChild.data
                 for node in xml.dom.minidom.parse(str(path)).getElementsByTagName("text")]
        assert texts.count("F < 1 & more") == 2 and "b>a" in texts

    def test_out_of_window_values_warn_and_clip(self, tmp_path):
        t = np.array([0.0, 1.0, 2.0])
        table = ResultTable(t, {"x": np.array([0.5, 1.2, 0.5])}, {})
        with pytest.warns(RuntimeWarning, match="clipped"):
            emit_plot(table, tmp_path / "clip.svg")

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_fewer_than_two_rows_raise_naming_the_count(self, tmp_path, n_rows):
        # one row once drew nan coordinates after a divide-by-zero warning,
        # and none raised IndexError
        table = ResultTable(np.arange(n_rows, dtype=float), {"x": np.full(n_rows, 0.5)}, {})
        path = tmp_path / "plot.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"at least 2 rows, got {n_rows}"):
                emit_plot(table, path)
        assert not path.exists()

    def test_deterministic_bytes(self, table, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(table, a)
        emit_plot(table, b)
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def polyline_points(path) -> list:
        return [el.get("points") for el in ET.parse(path).iter() if el.tag.endswith("polyline")]

    @pytest.mark.filterwarnings("ignore:column")
    @pytest.mark.parametrize("seed", range(20))
    def test_points_are_the_per_point_form(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 600))
        t = np.cumsum(rng.uniform(0.0, 1.0, n) + 1e-6) * 10.0 ** rng.integers(-6, 7)
        table = ResultTable(t, {"a": rng.uniform(-0.1, 1.2, n), "b": rng.uniform(0.0, 1.0, n)},
                            {})
        emit_plot(table, tmp_path / "plot.svg")
        polylines = self.polyline_points(tmp_path / "plot.svg")
        assert polylines == [legacy_points(t, np.clip(table.data[name], 0.0, 1.05))
                             for name in table.columns]

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda path: path.name)
    def test_preset_points_are_the_per_point_form(self, path, tmp_path):
        config = load_config(path)
        table = run_experiment(dataclasses.replace(config, n_traj=min(config.n_traj, 2)))
        emit_plot(table, tmp_path / "plot.svg")
        polylines = self.polyline_points(tmp_path / "plot.svg")
        assert polylines == [legacy_points(table.t, np.asarray(table.data[name]))
                             for name in table.columns]


class TestCli:
    def write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MEMORY_RAW)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok: kind=memory-qsd" in capsys.readouterr().out

    def test_validate_bad_config_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, kind="bogus"))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_grid_past_numpys_array_limit_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, grid={"t_max": 10.0, "n_steps": 2**61},
                                       signal={"family": "none"}))
        out = tmp_path / "res.csv"
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: grid.n_steps = 2305843009213693952 is too large") == 2
        assert not out.exists()

    def test_run_past_sweep_end_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, raw(ADIABATIC_RAW, grid={"t_max": 6.0, "n_steps": 600}))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "grid.t_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("n_traj", "abc"), ("n_traj", 2.7), ("master_seed", "x"), ("master_seed", -1),
         ("workers", "x"), ("workers", True), ("with_defect", "false")],
    )
    def test_run_mistyped_field_exits_2(self, tmp_path, capsys, field, value):
        cfg = self.write(tmp_path, raw(ADIABATIC_RAW, **{field: value}))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, overrides, field", MISTYPED, ids=[c[2] for c in MISTYPED])
    def test_run_mistyped_input_exits_2(self, tmp_path, capsys, base, overrides, field):
        cfg = self.write(tmp_path, raw(base, **overrides))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [({"signal": {"family": "shot", "strength": 0.1, "rate": math.inf}}, "signal.rate"),
         ({"omega": math.inf}, "omega"),
         ({"signal": {"family": "regular", "period": 0.02, "duration": 0.01, "area": 0.2},
           "grid": {"t_max": 10.0, "n_steps": 100}}, "signal.duration"),
         ({"states": [0.5, 1.5]}, "states[1]")],
    )
    def test_run_unphysical_value_exits_2(self, tmp_path, capsys, overrides, field):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, **overrides))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, overrides, field",
                             [c[:3] for c in UNSAMPLEABLE], ids=[c[3] for c in UNSAMPLEABLE])
    def test_run_unsampleable_signal_exits_2(self, tmp_path, capsys, base, overrides, field):
        cfg = self.write(tmp_path, raw(base, **overrides))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_run_grid_step_underflow_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, grid=UNDERFLOWING_GRID))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "grid: t_max / n_steps underflows" in capsys.readouterr().err
        assert not out.exists()

    def test_run_zero_workers_flag_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, ENSEMBLE_RAW)
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_run_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MEMORY_RAW)
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_missing_file_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_validate_non_utf8_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(MEMORY_RAW).encode("utf-16-le"))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err

    def test_run_writes_csv_and_plot(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MEMORY_RAW)
        out = tmp_path / "res.csv"
        svg = tmp_path / "res.svg"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--plot", str(svg)]
        )
        assert code == 0
        assert out.exists() and svg.exists()
        assert "wrote 401 rows" in capsys.readouterr().out

    def test_run_seed_override_lands_in_output(self, tmp_path):
        cfg = self.write(tmp_path, ENSEMBLE_RAW)
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
        assert read_embedded_config(out).master_seed == 99

    def test_run_workers_flag(self, tmp_path):
        cfg = self.write(tmp_path, ENSEMBLE_RAW)
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert (
            main(["run", "--config", str(cfg), "--out", str(out2), "--workers", "2"])
            == 0
        )
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unresolved_shot_noise_warning_reaches_stderr(self, tmp_path, command):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, signal=COARSE_SHOT))
        args = [command, "--config", cfg]
        if command == "run":
            args += ["--out", tmp_path / "res.csv"]
        done = run_cli(*args)
        assert done.returncode == 0, done.stderr
        assert "signal.rate = 100.0 is not resolved by the grid step" in done.stderr

    def test_cli_import_leaves_the_pool_module_unloaded(self):
        # only a run that starts a process pool needs multiprocessing
        code = "import sys, pulseguard.cli; print('concurrent.futures.process' in sys.modules)"
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("flags", [["--workers", "1"], ["--workers", "2"],
                                       ["--workers", "2", "--seed", "11"]],
                             ids=["1", "2", "2-seed"])
    def test_unresolved_shot_noise_warns_once_per_run(self, tmp_path, flags):
        # 70 trajectories are three blocks, so at two workers both processes
        # sample; only the one build of the config checks it
        cfg = self.write(tmp_path, raw(ENSEMBLE_RAW, signal=COARSE_SHOT, n_traj=70))
        done = run_cli("run", "--config", cfg, "--out", tmp_path / "res.csv", *flags)
        assert done.returncode == 0, done.stderr
        lines = [line for line in done.stderr.splitlines() if "shot rate" in line]
        assert len(lines) == 1, done.stderr
        assert "signal.rate = 100.0 is not resolved by the grid step" in lines[0]

    def test_overrides_check_the_config_once_under_w_always(self, tmp_path):
        # a filter that repeats every warning still prints this one once, so
        # the overrides add no second build of the config
        cfg = self.write(tmp_path, raw(ENSEMBLE_RAW, signal=COARSE_SHOT, n_traj=70))
        done = run_python("-W", "always", "-m", "pulseguard", "run", "--config", cfg,
                          "--out", tmp_path / "res.csv", "--workers", "2", "--seed", "3")
        assert done.returncode == 0, done.stderr
        lines = [line for line in done.stderr.splitlines() if line.startswith("warning:")]
        assert len(lines) == 1, done.stderr
        assert "signal.rate = 100.0 is not resolved by the grid step" in lines[0]

    def test_spawned_pool_workers_print_warnings_as_messages(self, tmp_path):
        # a strong, long-memory bath at omega = 0: shot noise pumps Re int F
        # below zero in trajectories 17 and 27, which the first block, in a
        # pool worker, solves; a worker that is not forked (spawn here, and
        # forkserver, Python 3.14's default, alike) sends the warning back,
        # and the CLI's handler prints it
        cfg = self.write(tmp_path, DIPPING_RAW)
        code = ("import multiprocessing, sys\n"
                "from pulseguard.cli import main\n"
                "multiprocessing.set_start_method('spawn')\n"
                "sys.exit(main(sys.argv[1:]))\n")
        done = run_python("-c", code, "run", "--config", cfg, "--out", tmp_path / "res.csv",
                          "--workers", "2")
        assert done.returncode == 0, done.stderr
        assert "warning: Re int F dipped below zero" in done.stderr
        for line in done.stderr.splitlines():
            assert line.startswith("warning: "), done.stderr

    def test_a_printer_that_cannot_pickle_does_not_stop_a_spawned_pool(self, tmp_path):
        # a library caller's lambda never leaves the parent, which prints a
        # spawned worker's warning with it; it once fell back to Python's
        # own format in the worker
        cfg = self.write(tmp_path, DIPPING_RAW)
        code = ("import multiprocessing, sys, warnings\n"
                "from pulseguard.runner import load_config, run_experiment\n"
                "multiprocessing.set_start_method('spawn')\n"
                "warnings.showwarning = lambda message, *_: print('shown:', message)\n"
                "print(run_experiment(load_config(sys.argv[1], workers=2)).n_rows)\n")
        done = run_python("-c", code, cfg)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (
            "shown: Re int F dipped below zero; fidelity is not guaranteed to stay in [0, 1]\n"
            "1001\n"
        )
        assert done.stderr == ""

    def test_a_pooled_failure_prints_what_one_process_prints(self, tmp_path):
        # 128 dipping trajectories are four blocks: the first warns, and
        # trajectory 66, in the third, diverges; the worker's warning comes
        # before the parent's error, as in one process
        cfg = self.write(tmp_path, raw(DIPPING_RAW, n_traj=128))
        errs = []
        for workers in ("1", "2"):
            done = run_cli("run", "--config", cfg, "--out", tmp_path / "res.csv",
                           "--workers", workers)
            assert done.returncode == 3, done.stderr
            errs.append(done.stderr)
        assert errs[1] == errs[0]
        lines = errs[0].splitlines()
        assert len(lines) == 2, errs[0]
        assert lines[0].startswith("warning: Re int F dipped below zero")
        assert lines[1] == ("numerical failure: memory-ensemble experiment: trajectory 66: "
                            "memory kernel diverged at t = 6.42")

    def test_validate_prints_the_shot_warning_as_its_message(self, tmp_path):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, signal=COARSE_SHOT))
        done = run_cli("validate", "--config", cfg)
        assert done.returncode == 0, done.stderr
        assert done.stderr == (
            "warning: shot rate * dt = 0.5 > 0.1: signal.rate = 100.0 is not resolved by "
            "the grid step dt = 0.005; raise grid.n_steps or lower signal.rate\n"
        )

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_run_unwritable_output_exits_4(self, tmp_path, capsys, flag):
        cfg = self.write(tmp_path, MEMORY_RAW)
        paths = {"--out": tmp_path / "res.csv", "--plot": tmp_path / "res.svg"}
        paths[flag] = tmp_path / "absent" / "x.out"
        args = ["run", "--config", str(cfg)]
        for name, path in paths.items():
            args += [name, str(path)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert str(paths[flag]) in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:shot rate")
    @pytest.mark.parametrize("base, overrides", OVERFLOWING_SHOT,
                             ids=[c[0]["kind"] for c in OVERFLOWING_SHOT])
    def test_run_overflowing_shot_heights_exit_3(self, tmp_path, capsys, base, overrides):
        cfg = self.write(tmp_path, raw(base, **overrides))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "trajectory 0: " in err and "signal.strength = 1e+305" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["memory-qsd", "memory-me2", "memory-ensemble"])
    def test_run_overflowing_bath_weight_exits_2(self, tmp_path, capsys, kind):
        cfg = self.write(tmp_path, raw(MEMORY_RAW, kind=kind, bath=OVERFLOWING_BATH))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bath: weight" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bath", [{"coupling": 1e6, "cutoff": 0.5},
                                      {"coupling": 1e100, "cutoff": 1e100}])
    def test_run_born_past_its_expansion_exits_3(self, tmp_path, capsys, bath):
        """fig1 as memory-me2 on a bath too strong for the second-order
        expansion fails as memory-qsd does there, instead of writing zeros."""
        preset = json.loads((ROOT / "configs" / "fig1.json").read_text())
        cfg = self.write(tmp_path, {**preset, "kind": "memory-me2", "bath": bath})
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: memory-me2 experiment: trajectory 0: ")
        assert re.search(r"at t = [0-9.e+-]+; the second-order expansion does not hold", err)
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            raw(
                MEMORY_RAW,
                grid={"t_max": 20.0, "n_steps": 4000},
                signal={"family": "none"},
                omega=0.0,
            ),
        )
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


PRESETS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestBundledPresets:
    EXPECTED = {
        "fig1.json": ("memory-qsd", "regular"),
        "fig2.json": ("memory-ensemble", "jittered"),
        "fig3.json": ("memory-ensemble", "shot"),
        "fig4.json": ("adiabatic", "shot"),
    }

    def test_all_presets_validate(self):
        preset_dir = Path(__file__).resolve().parents[1] / "configs"
        for name, (kind, family) in self.EXPECTED.items():
            config = load_config(preset_dir / name)
            assert config.kind == kind, name
            assert config.signal.kind == family, name
            assert config.resolved() == ExperimentConfig.from_dict(
                config.resolved()
            ).resolved(), name

    @pytest.mark.parametrize("path", PRESETS, ids=[p.name for p in PRESETS])
    def test_preset_validates_and_echoes_every_key(self, path, capsys):
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        self.assert_echoed(json.loads(path.read_text()), load_config(path).resolved(), "")

    def test_fig1_csv_embeds_the_given_state(self, tmp_path):
        table = run_experiment(load_config(ROOT / "configs" / "fig1.json"))
        emit_csv(table, tmp_path / "fig1.csv")
        config_line = (tmp_path / "fig1.csv").read_text().splitlines()[1]
        assert '"states":[0.5]' in config_line

    @pytest.mark.parametrize("path", PRESETS, ids=[p.name for p in PRESETS])
    def test_preset_csv_keeps_the_numpy_scalar_bytes(self, path, tmp_path):
        config = load_config(path)
        table = run_experiment(dataclasses.replace(config, n_traj=min(config.n_traj, 2)))
        emit_csv(table, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == legacy_csv(table)

    def assert_echoed(self, given, resolved, where):
        for key, value in given.items():
            assert key in resolved, f"{where}{key} is not echoed"
            echo = resolved[key]
            if isinstance(value, dict):
                self.assert_echoed(value, echo, f"{where}{key}.")
            else:
                assert echo == value and type(echo) is type(value), f"{where}{key}"
                if isinstance(value, list):
                    assert [type(x) for x in echo] == [type(x) for x in value], f"{where}{key}"
