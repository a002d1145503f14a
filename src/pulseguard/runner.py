"""Experiment orchestration: JSON configs in, CSV/SVG artifacts out.

A config describes one experiment (a memory-fidelity curve, an ensemble of
them, or an adiabatic sweep).  The runner validates it, dispatches to the
physics modules, and serialises the result with the fully resolved config
embedded, so any output file can be reproduced from its own header.
Only a stochastic signal family runs `n_traj` trajectories, whatever the
kind; a deterministic control runs once, so a memory-ensemble of it writes
that one run as its mean, with a zero stderr.

The worker count is deliberately kept out of the embedded config: the same
experiment must produce byte-identical files no matter how it was scheduled.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .adiabatic import PassageTrajectory, SweepSpec
from .bath import BathSpec
from .ensemble import ensemble_mean
from .me2 import BornTrajectory
from .numerics import NumericOverflowError, TimeGrid
from .qsd import DEFAULT_STATES, MemoryTrajectory, check_states
from .signals import FAMILY_SPECS, SignalFamily

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

_SWEEP_END_SLACK = 1.0e-12  # relative

# top-level keys that resolved() echoes for every kind, then those of each kind;
# workers is accepted as well but never echoed
_ECHOED_KEYS = ("kind", "grid", "signal", "master_seed")
_KIND_KEYS = {
    "memory-qsd": ("bath", "omega", "states"),
    "memory-me2": ("bath", "omega", "states"),
    "memory-ensemble": ("bath", "omega", "states", "n_traj"),
    "adiabatic": ("sweep", "n_traj", "with_defect"),
}


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


def _expect_object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected a JSON object, got {value!r}")
    return value


def _number(value, annotation: str, name: str):
    """A JSON number for a field annotated float (finite) or int (integer only).

    The spec modules use postponed annotations, so `annotation` is a string.
    """
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value
    if annotation != "float":
        raise TypeError(f"{name}: no JSON rule for fields annotated {annotation!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _build(cls, raw, context: str):
    """Make the spec dataclass `cls` from a JSON object, naming `context` in errors."""
    spec_fields = fields(cls)
    _reject_unknown(_expect_object(raw, context), [f.name for f in spec_fields], context)
    kwargs = {}
    for f in spec_fields:
        if f.name in raw:
            kwargs[f.name] = _number(raw[f.name], f.type, f"{context}.{f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"{context}: missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build_signal(raw) -> SignalFamily:
    family = _require(_expect_object(raw, "signal"), "family", "signal")
    if not isinstance(family, str) or family not in FAMILY_SPECS:
        raise ConfigError(
            f"signal: unknown family {family!r}; expected one of {tuple(FAMILY_SPECS)}"
        )
    specs = FAMILY_SPECS[family]
    _reject_unknown(raw, ["family"] + [f.name for cls in specs.values() for f in fields(cls)],
                    "signal")
    return SignalFamily(kind=family, **{
        attr: _build(cls, {f.name: raw[f.name] for f in fields(cls) if f.name in raw}, "signal")
        for attr, cls in specs.items()
    })


def _build_states(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"states must be a non-empty list of numbers, got {raw!r}")
    states = [_number(p, "float", f"states[{i}]") for i, p in enumerate(raw)]
    try:
        return check_states(states)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    `workers` only schedules the run, so `resolved()` leaves it out: result
    files do not depend on it.
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
        if not isinstance(kind, str) or kind not in _KIND_KEYS:
            raise ConfigError(
                f"config: unknown kind {kind!r}; expected one of {tuple(_KIND_KEYS)}"
            )
        _reject_unknown(raw, _ECHOED_KEYS + ("workers",) + _KIND_KEYS[kind], "config")

        grid = _build(TimeGrid, _require(raw, "grid", "config"), "grid")
        signal = _build_signal(_require(raw, "signal", "config"))
        try:
            signal.check(grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        scalars = {key: raw[key] for key in ("n_traj", "master_seed", "with_defect", "workers")
                   if key in raw}

        if kind == "adiabatic":
            sweep = _build(SweepSpec, _require(raw, "sweep", "config"), "sweep")
            # the schedule a(s) = s, b(s) = 1 - s means nothing past s = 1;
            # the slack only forgives float round-off in equal values
            if grid.t_max > sweep.passage_time * (1.0 + _SWEEP_END_SLACK):
                raise ConfigError(
                    f"grid.t_max = {grid.t_max!r} runs past sweep.passage_time = "
                    f"{sweep.passage_time!r}; the sweep ends at s = 1"
                )
            return cls(kind=kind, grid=grid, signal=signal, sweep=sweep, **scalars)

        return cls(
            kind=kind,
            grid=grid,
            signal=signal,
            bath=_build(BathSpec, _require(raw, "bath", "config"), "bath"),
            omega=_number(raw.get("omega", 1.0), "float", "omega"),
            states=_build_states(raw["states"]) if "states" in raw else DEFAULT_STATES,
            **scalars,
        )

    def resolved(self) -> dict:
        """Canonical dict of everything that determines the result."""
        out = {}
        for key in _ECHOED_KEYS + _KIND_KEYS[self.kind]:
            value = getattr(self, key)
            if key == "signal":
                value = {"family": self.signal.kind}
                for attr in FAMILY_SPECS[self.signal.kind]:
                    value.update(asdict(getattr(self.signal, attr)))
            elif key == "states":
                value = list(value)
            elif is_dataclass(value):
                value = asdict(value)
            out[key] = value
        return out


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


@dataclass(frozen=True)
class ResultTable:
    """Columnar result: t plus named columns, with the config echoed.

    data maps column names to values, in column order.
    """

    t: np.ndarray
    data: dict
    metadata: dict

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("t must be strictly increasing")
        for name, values in self.data.items():
            if len(values) != len(self.t):
                raise ValueError(f"column {name!r} length does not match t")

    @property
    def columns(self) -> tuple:
        return tuple(self.data)

    @property
    def n_rows(self) -> int:
        return len(self.t)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run one experiment; deterministic for a fixed (config, seed).

    config.workers only spreads whole trajectory blocks over processes, so
    the numbers cannot depend on it.
    """
    metadata = {"config": config.resolved(), "version": __version__}
    try:
        return _dispatch(config, metadata)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"{config.kind} experiment: {exc}") from exc


def _trajectory(config: ExperimentConfig):
    """The per-trajectory function of the config's kind."""
    if config.kind == "adiabatic":
        return PassageTrajectory(config.sweep, config.signal, config.master_seed, config.grid)
    cls = BornTrajectory if config.kind == "memory-me2" else MemoryTrajectory
    return cls(config.signal, config.bath, config.states, config.master_seed, config.grid,
               config.omega)


def _dispatch(config: ExperimentConfig, metadata: dict) -> ResultTable:
    trajectory = _trajectory(config)
    # a deterministic control gives every trajectory the same rows, so it runs once
    n_traj = config.n_traj if config.signal.stochastic else 1
    mean, stderr = ensemble_mean(trajectory, n_traj, config.workers)
    rows = trajectory.rows
    if config.kind == "memory-ensemble" or n_traj > 1:
        data = {"mean": mean[0], "stderr": stderr[0], **dict(zip(rows[1:], mean[1:]))}
    else:
        data = dict(zip(rows, mean))
    if not config.with_defect:
        data.pop("defect", None)
    return ResultTable(config.grid.times, data, metadata)


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
    lines.append(",".join(("t",) + table.columns))
    if table.columns and table.n_rows:
        # Python floats through one %-format for the whole body: the bytes of
        # formatting each numpy scalar with f"{x:.12g}", at a fraction of the cost
        cols = [table.t] + [table.data[name] for name in table.columns]
        row_format = ",".join(["%.12g"] * len(cols))
        body = "\n".join([row_format] * table.n_rows)
        lines.append(body % tuple(np.column_stack(cols).ravel().tolist()))
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
