"""Experiment orchestration: JSON configs in, CSV/SVG artifacts out.

A config describes one experiment (a memory-fidelity curve, an ensemble of
them, or an adiabatic sweep).  Its rules live in `ExperimentConfig`, so a
config built in Python or by `dataclasses.replace` obeys them too.  The
runner dispatches it to the physics modules and serialises the result with
the fully resolved config embedded, so any output file can be reproduced
from its own header.
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
from functools import lru_cache, partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .adiabatic import SweepSpec, solve_psi0
from .bath import BathSpec
from .ensemble import _BLOCK, ensemble_mean
from .me2 import _CHUNK as _BORN_CHUNK, me2_fidelity
from .numerics import NumericOverflowError, TimeGrid
from .qsd import (
    _CHUNK,
    DEFAULT_STATES,
    KernelCurve,
    _check_states,
    qsd_fidelity,
    solve_kernel_riccati,
)
from .signals import FAMILY_SPECS, SignalFamily, effective_frequency, substream

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
# numpy refuses, with a ValueError, an array of more bytes than an intp holds
_ARRAY_BYTES_LIMIT = np.iinfo(np.intp).max

# top-level keys that resolved() echoes for every kind, then those of each kind,
# the first of which is the spec it requires; workers is accepted but never echoed
_ECHOED_KEYS = ("kind", "grid", "signal", "master_seed")
_KIND_KEYS = {
    "memory-qsd": ("bath", "omega", "states"),
    "memory-me2": ("bath", "omega", "states"),
    "memory-ensemble": ("bath", "omega", "states", "n_traj"),
    "adiabatic": ("sweep", "n_traj", "with_defect"),
}
# the rows of one trajectory of each kind, as _block returns them
_ROWS = {
    "memory-qsd": ("qsd",),
    "memory-me2": ("me2",),
    "memory-ensemble": ("qsd",),
    "adiabatic": ("psi0", "defect"),
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
    if not isinstance(raw, list):
        raise ConfigError(f"states must be a list of numbers, got {raw!r}")
    return tuple(_number(p, "float", f"states[{i}]") for i, p in enumerate(raw))


def _kind_keys(kind) -> tuple:
    """The keys of `kind` past the shared ones; a ConfigError if it is no kind."""
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"config: unknown kind {kind!r}; expected one of {tuple(_KIND_KEYS)}")
    return _KIND_KEYS[kind]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; every rule is checked here, and
    from_dict only turns JSON into typed values.

    `workers` only schedules the run, so `resolved()` leaves it out: result
    files do not depend on it.
    """

    kind: str
    grid: TimeGrid
    signal: SignalFamily
    bath: Optional[BathSpec] = None
    omega: float = 1.0
    states: tuple = DEFAULT_STATES
    sweep: Optional[SweepSpec] = None
    n_traj: int = 1
    master_seed: int = 0
    with_defect: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        for name, low in (("n_traj", 1), ("master_seed", 0), ("workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"config: {name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.with_defect, bool):
            raise ConfigError(f"config: with_defect must be a boolean, got {self.with_defect!r}")
        required = _kind_keys(self.kind)[0]
        if getattr(self, required) is None:
            raise ConfigError(f"config: missing required key {required!r}")
        try:
            self.signal.check(self.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.kind == "adiabatic":
            # the schedule a(s) = s, b(s) = 1 - s means nothing past s = 1;
            # the slack only forgives float round-off in equal values
            if self.grid.t_max > self.sweep.passage_time * (1.0 + _SWEEP_END_SLACK):
                raise ConfigError(
                    f"grid.t_max = {self.grid.t_max!r} runs past sweep.passage_time = "
                    f"{self.sweep.passage_time!r}; the sweep ends at s = 1"
                )
        else:
            try:
                object.__setattr__(self, "states", _check_states(self.states))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        size = _largest_array_bytes(self)
        if size > _ARRAY_BYTES_LIMIT:
            raise ConfigError(
                f"grid.n_steps = {self.grid.n_steps!r} is too large: the run would form an "
                f"array of {size} bytes, more than numpy's limit of {_ARRAY_BYTES_LIMIT}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        kind = _require(raw, "kind", "config")
        _reject_unknown(raw, _ECHOED_KEYS + ("workers",) + _kind_keys(kind), "config")
        grid = _build(TimeGrid, _require(raw, "grid", "config"), "grid")
        signal = _build_signal(_require(raw, "signal", "config"))
        kwargs = {key: raw[key] for key in ("n_traj", "master_seed", "with_defect", "workers")
                  if key in raw}
        for key, spec in (("bath", BathSpec), ("sweep", SweepSpec)):
            if key in raw:
                kwargs[key] = _build(spec, raw[key], key)
        if "omega" in raw:
            kwargs["omega"] = _number(raw["omega"], "float", "omega")
        if "states" in raw:
            kwargs["states"] = _build_states(raw["states"])
        return cls(kind=kind, grid=grid, signal=signal, **kwargs)

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


def _largest_array_bytes(config: ExperimentConfig) -> int:
    """The bytes of the largest array a run of `config` forms, from the sizes
    in the code that forms it; arithmetic only, so nothing is allocated."""
    n = config.grid.n_steps
    # a stochastic family runs in blocks of up to _BLOCK trajectories, any other once
    block = min(config.n_traj, _BLOCK) if config.signal.stochastic else 1
    sizes = [8 * block * len(_ROWS[config.kind]) * (n + 1)]  # _block's rows
    if config.kind == "adiabatic":
        # the Volterra scan's maps, four complex entries each, over its levels
        maps = level = n
        while level > 1:
            level = (level + 1) // 2
            maps += level
        sizes.append(64 * maps)
    else:
        # complex nodes over whole chunks: a block's kernel, or a Born
        # curve's phase factors and decayed-sum table, one curve at a time
        born = config.kind == "memory-me2"
        chunk = min(_BORN_CHUNK if born else _CHUNK, n)
        nodes = -(-n // chunk) * chunk + 1
        sizes.append(16 * (1 if born else block) * nodes)
        if born:
            sizes.append(8 * len(config.states) * (n + 1))  # each state's Born factor
    return max(sizes)


def _read_text(path, what: str) -> str:
    """The text of the UTF-8 file `path`; a ConfigError naming `what` and path
    if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc}") from exc


def _config_from_json(text: str, source: str, /, **overrides) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def load_config(path, /, **overrides) -> ExperimentConfig:
    """The config in the JSON file `path`, with the top-level keys in
    `overrides` set over the file's before the config is built, so that
    its rules are checked, and its warnings raised, once."""
    return _config_from_json(_read_text(path, "config"), f"config {path}", **overrides)


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


def _block(config: ExperimentConfig, ks: Sequence[int]) -> np.ndarray:
    """Rows of the trajectories ks of the config's kind, shape
    (len(ks), rows, n_steps + 1), the rows named by _ROWS.

    Trajectory k's control comes from substream (master_seed, k).  The
    memory kernels of the whole block come from one batched solve; a Born
    curve or a sweep is solved one trajectory at a time.  An overflow, in
    sampling or in a solve, names its position in ks as the error's `row`.
    """
    grid = config.grid
    shape = (len(ks), len(_ROWS[config.kind]), grid.n_steps + 1)
    batched = config.kind in ("memory-qsd", "memory-ensemble")
    # a batched block makes its rows only after its drives are solved and
    # freed, so that it never holds both
    drives = np.empty((len(ks), grid.n_steps)) if batched else None
    out = None if batched else np.empty(shape)
    for row, k in enumerate(ks):
        try:
            control = config.signal.sample(substream(config.master_seed, k), grid)
            if batched:
                drives[row] = effective_frequency(control, config.omega)
            else:
                out[row] = _solve(config, control)
        except NumericOverflowError as exc:
            raise NumericOverflowError(str(exc), row) from exc
    if batched:
        kernels = solve_kernel_riccati(drives, config.bath, grid).values
        del drives
        out = np.empty(shape)
        for row, F in zip(out, kernels):
            row[0] = qsd_fidelity(config.states, KernelCurve(grid, F)).values
    return out


def _solve(config: ExperimentConfig, control) -> tuple:
    """The rows of one Born curve or one sweep under `control`."""
    if config.kind == "adiabatic":
        curve = solve_psi0(config.sweep, control, config.grid)
        return curve.magnitudes, curve.defect
    E = effective_frequency(control, config.omega)
    return (me2_fidelity(config.states, E, config.bath, config.grid).values,)


def _dispatch(config: ExperimentConfig, metadata: dict) -> ResultTable:
    # a deterministic control gives every trajectory the same rows, so it runs once
    n_traj = config.n_traj if config.signal.stochastic else 1
    mean, stderr = ensemble_mean(partial(_block, config), n_traj, config.workers)
    rows = _ROWS[config.kind]
    if config.kind == "memory-ensemble" or n_traj > 1:
        data = {"mean": mean[0], "stderr": stderr[0], **dict(zip(rows[1:], mean[1:]))}
    else:
        data = dict(zip(rows, mean))
    if not config.with_defect:
        data.pop("defect", None)
    return ResultTable(config.grid.times, data, metadata)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# a body of more numbers than this gets a template built for that write
# alone, so a kept template, with its key, holds at most about 1 MB
_CACHED_CELLS = 1 << 16


@lru_cache(maxsize=8)
def _body_format(t: bytes, n_columns: int) -> str:
    """The %-format of a CSV body on the times whose float64 bytes are `t`,
    each row's time already written and its `n_columns` values left as %.12g."""
    times = np.frombuffer(t).tolist()
    return "\n".join(["%.12g" + ",%%.12g" * n_columns] * len(times)) % tuple(times)


def _write(path, payload: str, what: str) -> None:
    """Write `payload` to `path` with LF newlines; an OSError naming `what`
    and the path if it cannot."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_csv(table: ResultTable, path) -> None:
    """Write `# metadata` comment lines, a header row, then the data.

    Numbers carry 12 significant digits; newlines are LF regardless of
    platform.  No timestamps or environment details enter the file, so a
    fixed (config, seed) always hashes identically.  The body comes from a
    row template with each t already written, so only the data columns
    are formatted per call.  The first CSV on a grid and column count
    builds the template, and later ones on the same pair reuse it.
    Templates are kept for the 8 pairs used most recently, and only for
    bodies of at most 65536 numbers, so each holds about 1 MB at most with
    its key; a larger body builds its own for that write.  The bytes are
    those of formatting every cell afresh.
    """
    lines = ["# metadata"]
    for key in sorted(table.metadata):
        lines.append(f"# {key} = {_canonical_json(table.metadata[key])}")
    lines.append(",".join(("t",) + table.columns))
    if table.columns and table.n_rows:
        # Python floats through one %-format for the whole body: the bytes of
        # formatting each numpy scalar with f"{x:.12g}", at a fraction of the
        # cost.  A template is keyed on the exact bytes of t, not on a grid,
        # so a hand-built table gets its own rows; a formatted float holds no
        # %, so the written times need no escaping
        cols = [table.data[name] for name in table.columns]
        kept = table.n_rows * (1 + len(cols)) <= _CACHED_CELLS
        template = (_body_format if kept else _body_format.__wrapped__)(
            np.asarray(table.t, dtype=float).tobytes(), len(cols))
        lines.append(template % tuple(np.column_stack(cols).ravel().tolist()))
    _write(path, "\n".join(lines) + "\n", "result")


def read_embedded_config(path) -> ExperimentConfig:
    """Recover the experiment config embedded in an emitted CSV."""
    prefix = "# config = "
    for line in _read_text(path, "result").splitlines():
        if line.startswith(prefix):
            return _config_from_json(line[len(prefix):], f"the config line of {path}")
    raise ConfigError(f"no embedded config found in {path}")


_PLOT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_PLOT_W, _PLOT_H = 640, 440
_MARGIN = 50.0
_Y_LO, _Y_HI = 0.0, 1.05


def emit_plot(table: ResultTable, path, title: Optional[str] = None) -> None:
    """Minimal deterministic SVG line plot of every column against t.

    Cosmetic only.  The y window is fixed to [0, 1.05]; values outside it
    are clipped to the frame and reported with a warning.  The title and
    the column names are written as escaped text.
    """
    x0, y0 = _MARGIN, _PLOT_H - _MARGIN
    x1, y1 = _PLOT_W - _MARGIN, _MARGIN
    t = np.asarray(table.t, dtype=float)
    if len(t) < 2:
        raise ValueError(f"a plot needs at least 2 rows, got {len(t)}")
    span = t[-1] - t[0]
    xs = x0 + (t - t[0]) / span * (x1 - x0)
    # one %-format per polyline, as the body of a CSV
    points_format = " ".join(["%.2f,%.2f"] * len(t))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'viewBox="0 0 {_PLOT_W} {_PLOT_H}">',
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#000000"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{y1 - 10}" text-anchor="middle" '
            f'font-size="14">{_svg_text(title)}</text>'
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
        ys = y0 + (values - _Y_LO) / (_Y_HI - _Y_LO) * (y1 - y0)
        points = points_format % tuple(np.column_stack((xs, ys)).ravel().tolist())
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{x1 - 6}" y="{y1 + 16 + 16 * idx}" text-anchor="end" '
            f'font-size="12" fill="{color}">{_svg_text(name)}</text>'
        )
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n", "plot")


def _svg_text(text: str) -> str:
    """`text` as SVG character data: &, < and > escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
