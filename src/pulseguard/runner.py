"""Experiment orchestration: JSON configs in, CSV/SVG artifacts out.

A config describes one experiment (a memory-fidelity curve, an ensemble of
them, or an adiabatic sweep).  The runner validates it, dispatches to the
physics modules, and serialises the result with the fully resolved config
embedded, so any output file can be reproduced from its own header.

Runtime-only settings (worker count, output paths) are deliberately kept
out of the embedded config: the same experiment must produce byte-identical
files no matter how it was scheduled.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .adiabatic import PassageTrajectory, SweepSpec, ensemble_passage
from .bath import BathSpec
from .numerics import NumericOverflowError, TimeGrid
from .qsd import InitialState, MemoryTrajectory, default_state_grid, ensemble_fidelity
from .me2 import BornTrajectory
from .signals import ChaoticSpec, JitterSpec, PulseTrainSpec, ShotNoiseSpec, SignalFamily

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultTable",
    "load_config",
    "run_experiment",
    "emit_csv",
    "emit_plot",
    "read_embedded_config",
]

KINDS = ("memory-me2", "memory-qsd", "memory-ensemble", "adiabatic")
_SWEEP_END_SLACK = 1.0e-12  # relative


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _build_signal(spec: dict) -> SignalFamily:
    kind = _require(spec, "family", "signal")
    common = ["family"]
    try:
        if kind == "none":
            _reject_unknown(spec, common, "signal")
            return SignalFamily(kind="none")
        if kind == "regular":
            _reject_unknown(spec, common + ["period", "duration", "area"], "signal")
            pulse = PulseTrainSpec(
                period=_require(spec, "period", "signal"),
                duration=_require(spec, "duration", "signal"),
                area=_require(spec, "area", "signal"),
            )
            return SignalFamily(kind="regular", pulse=pulse)
        if kind == "jittered":
            _reject_unknown(
                spec,
                common
                + ["period", "duration", "area", "period_dev", "duration_dev", "area_dev"],
                "signal",
            )
            pulse = PulseTrainSpec(
                period=_require(spec, "period", "signal"),
                duration=_require(spec, "duration", "signal"),
                area=_require(spec, "area", "signal"),
            )
            jitter = JitterSpec(
                period_dev=spec.get("period_dev", 0.0),
                duration_dev=spec.get("duration_dev", 0.0),
                area_dev=spec.get("area_dev", 0.0),
            )
            return SignalFamily(kind="jittered", pulse=pulse, jitter=jitter)
        if kind == "chaotic":
            _reject_unknown(
                spec,
                common + ["period", "duration", "area", "logistic_r", "seed_intensity"],
                "signal",
            )
            pulse = PulseTrainSpec(
                period=_require(spec, "period", "signal"),
                duration=_require(spec, "duration", "signal"),
                area=_require(spec, "area", "signal"),
            )
            chaos = ChaoticSpec(
                logistic_r=spec.get("logistic_r", 3.9),
                seed_intensity=spec.get("seed_intensity", 0.5),
            )
            return SignalFamily(kind="chaotic", pulse=pulse, chaos=chaos)
        if kind == "shot":
            _reject_unknown(spec, common + ["strength", "rate"], "signal")
            shot = ShotNoiseSpec(
                strength=_require(spec, "strength", "signal"),
                rate=_require(spec, "rate", "signal"),
            )
            return SignalFamily(kind="shot", shot=shot)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"signal: {exc}") from exc
    raise ConfigError(f"signal: unknown family {kind!r}; expected none/regular/jittered/chaotic/shot")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    `workers` and `output` are runtime conveniences; they are accepted here
    but excluded from `resolved()` so that result files do not depend on
    scheduling details.
    """

    kind: str
    grid: TimeGrid
    signal: SignalFamily
    bath: Optional[BathSpec] = None
    omega: float = 1.0
    states: tuple = ()
    sweep: Optional[SweepSpec] = None
    n_traj: int = 1
    master_seed: int = 0
    with_defect: bool = False
    workers: int = 1
    output: Optional[str] = None

    def __post_init__(self) -> None:
        # here, not in from_dict, so that dataclasses.replace (--seed) is checked too
        for name, low in (("n_traj", 1), ("master_seed", 0), ("workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"config: {name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.with_defect, bool):
            raise ConfigError(f"config: with_defect must be a boolean, got {self.with_defect!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        kind = _require(raw, "kind", "config")
        if kind not in KINDS:
            raise ConfigError(f"config: unknown kind {kind!r}; expected one of {KINDS}")
        memory = kind.startswith("memory-")
        allowed = ["kind", "grid", "signal", "master_seed", "workers", "output"]
        if memory:
            allowed += ["bath", "omega", "states"]
            if kind == "memory-ensemble":
                allowed += ["n_traj"]
        else:
            allowed += ["sweep", "n_traj", "with_defect"]
        _reject_unknown(raw, allowed, "config")

        grid_raw = _require(raw, "grid", "config")
        _reject_unknown(grid_raw, ["t_max", "n_steps"], "grid")
        try:
            grid = TimeGrid(
                t_max=float(_require(grid_raw, "t_max", "grid")),
                n_steps=int(_require(grid_raw, "n_steps", "grid")),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

        signal = _build_signal(_require(raw, "signal", "config"))

        bath = None
        states: tuple = ()
        sweep = None
        omega = 1.0
        if memory:
            bath_raw = _require(raw, "bath", "config")
            _reject_unknown(bath_raw, ["coupling", "cutoff"], "bath")
            try:
                bath = BathSpec(
                    coupling=float(_require(bath_raw, "coupling", "bath")),
                    cutoff=float(_require(bath_raw, "cutoff", "bath")),
                )
            except ValueError as exc:
                raise ConfigError(f"bath: {exc}") from exc
            omega = float(raw.get("omega", 1.0))
            probs = raw.get("states")
            try:
                if probs is None:
                    states = tuple(default_state_grid())
                else:
                    states = tuple(InitialState.from_excited_prob(float(p)) for p in probs)
            except ValueError as exc:
                raise ConfigError(f"states: {exc}") from exc
        else:
            sweep_raw = _require(raw, "sweep", "config")
            _reject_unknown(sweep_raw, ["passage_time", "base_freq"], "sweep")
            try:
                sweep = SweepSpec(
                    passage_time=float(_require(sweep_raw, "passage_time", "sweep")),
                    base_freq=float(sweep_raw.get("base_freq", 1.0)),
                )
            except ValueError as exc:
                raise ConfigError(f"sweep: {exc}") from exc
            # the schedule a(s) = s, b(s) = 1 - s means nothing past s = 1;
            # the slack only forgives float round-off in equal values
            if grid.t_max > sweep.passage_time * (1.0 + _SWEEP_END_SLACK):
                raise ConfigError(
                    f"grid.t_max = {grid.t_max!r} runs past sweep.passage_time = "
                    f"{sweep.passage_time!r}; the sweep ends at s = 1"
                )

        return cls(
            kind=kind,
            grid=grid,
            signal=signal,
            bath=bath,
            omega=omega,
            states=states,
            sweep=sweep,
            n_traj=raw.get("n_traj", 1),
            master_seed=raw.get("master_seed", 0),
            with_defect=raw.get("with_defect", False),
            workers=raw.get("workers", 1),
            output=raw.get("output"),
        )

    def resolved(self) -> dict:
        """Canonical dict of everything that determines the result."""
        signal: dict = {"family": self.signal.kind}
        if self.signal.pulse is not None:
            signal.update(
                period=self.signal.pulse.period,
                duration=self.signal.pulse.duration,
                area=self.signal.pulse.area,
            )
        if self.signal.jitter is not None:
            signal.update(
                period_dev=self.signal.jitter.period_dev,
                duration_dev=self.signal.jitter.duration_dev,
                area_dev=self.signal.jitter.area_dev,
            )
        if self.signal.chaos is not None:
            signal.update(
                logistic_r=self.signal.chaos.logistic_r,
                seed_intensity=self.signal.chaos.seed_intensity,
            )
        if self.signal.shot is not None:
            signal.update(strength=self.signal.shot.strength, rate=self.signal.shot.rate)
        out = {
            "kind": self.kind,
            "grid": {"t_max": self.grid.t_max, "n_steps": self.grid.n_steps},
            "signal": signal,
            "master_seed": self.master_seed,
        }
        if self.kind.startswith("memory-"):
            out["bath"] = {"coupling": self.bath.coupling, "cutoff": self.bath.cutoff}
            out["omega"] = self.omega
            out["states"] = [s.p_excited for s in self.states]
            if self.kind == "memory-ensemble":
                out["n_traj"] = self.n_traj
        else:
            out["sweep"] = {
                "passage_time": self.sweep.passage_time,
                "base_freq": self.sweep.base_freq,
            }
            out["n_traj"] = self.n_traj
            out["with_defect"] = self.with_defect
        return out


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


@dataclass(frozen=True)
class ResultTable:
    """Columnar result: t plus named columns, with the config echoed."""

    t: np.ndarray
    columns: tuple
    data: dict
    metadata: dict

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("t must be strictly increasing")
        for name in self.columns:
            if len(self.data[name]) != len(self.t):
                raise ValueError(f"column {name!r} length does not match t")

    @property
    def n_rows(self) -> int:
        return len(self.t)


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ResultTable:
    """Dispatch one experiment; deterministic for a fixed (config, seed).

    workers overrides config.workers; parallelism only ever distributes
    whole trajectory blocks, so the numbers cannot depend on it.
    """
    n_workers = config.workers if workers is None else workers
    if n_workers < 1:
        raise ConfigError(f"workers must be >= 1, got {n_workers}")
    metadata = {"config": config.resolved(), "version": __version__}
    t = config.grid.times

    try:
        return _dispatch(config, n_workers, metadata, t)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"{config.kind} experiment: {exc}") from exc


def _dispatch(config: ExperimentConfig, n_workers: int, metadata: dict, t) -> ResultTable:

    def run_pooled(fn):
        if n_workers == 1:
            return fn(map)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return fn(pool.map)

    if config.kind in ("memory-qsd", "memory-me2"):
        born = config.kind == "memory-me2"
        trajectory = (BornTrajectory if born else MemoryTrajectory)(
            config.signal, config.bath, config.states, config.master_seed, config.grid,
            config.omega,
        )
        data = {"me2" if born else "qsd": trajectory(0)}
    elif config.kind == "memory-ensemble":
        curve = run_pooled(
            lambda m: ensemble_fidelity(
                config.signal,
                config.bath,
                config.states,
                config.n_traj,
                config.master_seed,
                config.grid,
                omega=config.omega,
                map_fn=m,
            )
        )
        data = {"mean": curve.values, "stderr": curve.stderr}
    elif config.signal.stochastic and config.n_traj > 1:  # adiabatic from here on
        result = run_pooled(
            lambda m: ensemble_passage(
                config.sweep,
                config.signal,
                config.n_traj,
                config.master_seed,
                config.grid,
                map_fn=m,
                with_defect=config.with_defect,
            )
        )
        data = {"mean": result.mean_magnitude, "stderr": result.stderr,
                "defect": result.mean_defect}
    else:
        trajectory = PassageTrajectory(config.sweep, config.signal, config.master_seed, config.grid)
        data = dict(zip(("psi0", "defect"), trajectory(0)))
    if not config.with_defect:
        data.pop("defect", None)
    return ResultTable(t, tuple(data), data, metadata)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit_csv(table: ResultTable, path) -> None:
    """Write `# metadata` comment lines, a header row, then the data.

    Numbers carry 12 significant digits; newlines are LF regardless of
    platform.  No timestamps or environment details enter the file, so a
    fixed (config, seed) always hashes identically.
    """
    lines = ["# metadata"]
    for key in sorted(table.metadata):
        lines.append(f"# {key} = {_canonical_json(table.metadata[key])}")
    lines.append(",".join(("t",) + tuple(table.columns)))
    if table.columns:
        cols = [np.asarray(table.data[name]) for name in table.columns]
        for i, t in enumerate(table.t):
            row = [f"{t:.12g}"] + [f"{c[i]:.12g}" for c in cols]
            lines.append(",".join(row))
    payload = "\n".join(lines) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write result to {path}: {exc}") from exc


def read_embedded_config(path) -> ExperimentConfig:
    """Recover the experiment config embedded in an emitted CSV."""
    for line in Path(path).read_text().splitlines():
        if line.startswith("# config = "):
            return ExperimentConfig.from_dict(json.loads(line[len("# config = "):]))
    raise ConfigError(f"no embedded config found in {path}")


_PLOT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_PLOT_W, _PLOT_H = 640, 440
_MARGIN = 50.0
_Y_LO, _Y_HI = 0.0, 1.05


def emit_plot(table: ResultTable, path, title: Optional[str] = None) -> None:
    """Minimal deterministic SVG line plot of every column against t.

    Cosmetic only.  The y window is fixed to [0, 1.05]; values outside it
    are clipped to the frame and reported with a warning.
    """
    x0, y0 = _MARGIN, _PLOT_H - _MARGIN
    x1, y1 = _PLOT_W - _MARGIN, _MARGIN
    t = np.asarray(table.t, dtype=float)
    span = t[-1] - t[0]

    def x_px(v):
        return x0 + (v - t[0]) / span * (x1 - x0)

    def y_px(v):
        return y0 + (v - _Y_LO) / (_Y_HI - _Y_LO) * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'viewBox="0 0 {_PLOT_W} {_PLOT_H}">',
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#000000"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{y1 - 10}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    parts += [
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_PLOT_H - 12}" text-anchor="middle" '
        f'font-size="13">t (from {t[0]:.6g} to {t[-1]:.6g})</text>',
        f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.1f})" text-anchor="middle">'
        f'value ({_Y_LO:g} to {_Y_HI:g})</text>',
    ]
    for idx, name in enumerate(table.columns):
        values = np.asarray(table.data[name], dtype=float)
        outside = (values < _Y_LO) | (values > _Y_HI)
        if np.any(outside):
            warnings.warn(
                f"column {name!r}: {int(np.count_nonzero(outside))} value(s) outside "
                f"[{_Y_LO:g}, {_Y_HI:g}] clipped in plot",
                RuntimeWarning,
                stacklevel=2,
            )
            values = np.clip(values, _Y_LO, _Y_HI)
        color = _PLOT_COLORS[idx % len(_PLOT_COLORS)]
        points = " ".join(
            f"{x_px(tv):.2f},{y_px(vv):.2f}" for tv, vv in zip(t, values)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{x1 - 6}" y="{y1 + 16 + 16 * idx}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    payload = "\n".join(parts) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write plot to {path}: {exc}") from exc
