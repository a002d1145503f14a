"""Control-signal generators: pulse trains and Poisson shot noise.

The control enters the physics only through the shifted level splitting
E(t) = omega + c(t).  All generators produce c(t) at the midpoints of a
TimeGrid, which sidesteps edge ambiguity, as runs of cells (SampledSignal).

Every pulse family (regular, chaotic, jittered) is a train of
(end, duration, height) triples, and one sampler puts any train on the grid.
The window convention: a midpoint t lies in a pulse when
end - duration < t <= end, and there c(t) is that pulse's height; where
rounding lets two windows overlap, t belongs to the first pulse that ends
at or after it.  The sampler searches each pulse's two edges in the
midpoints, a few hundred searches per train rather than one per midpoint,
and the cells between them are its runs.  The families differ only in the
triples they build.

Randomness is drawn from numpy's PCG64 generator.  Substreams are derived
from (master_seed, stream_index) via numpy SeedSequence spawn keys, so an
ensemble is reproducible run to run and independent of how trajectories are
distributed over workers.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .numerics import NumericOverflowError, TimeGrid

__all__ = [
    "PulseTrainSpec",
    "JitterSpec",
    "ChaoticSpec",
    "ShotNoiseSpec",
    "SampledSignal",
    "SignalFamily",
    "FAMILY_SPECS",
    "substream",
    "sample_family",
    "effective_frequency",
]

Seed = Union[int, np.random.SeedSequence]

# duration clamp floor, as a fraction of the drawn period
_MIN_DUTY = 1.0e-9
# largest shot rate * dt whose arrivals the grid still resolves
_SHOT_RATE_DT_MAX = 0.1
# modules whose frames a warning skips to reach its caller: the package's,
# and the stdlib's dataclasses, through which replace() builds a config
_INSIDE = ("pulseguard", "dataclasses")
# largest mean numpy's Poisson sampler accepts ("lam value too large" above it)
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


def substream(master_seed: int, index: int) -> np.random.SeedSequence:
    """Named substream derivation: child `index` of `master_seed`.

    Uses SeedSequence spawn keys, the scheme numpy documents for building
    independent, reproducible streams.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class PulseTrainSpec:
    """Rectangular pulse train: period, on-duration, and pulse area.

    Pulse n (n >= 1) ends at n*period and has height area/duration, so the
    area per pulse is the phase kicked into the qubit by a single pulse.
    """

    period: float
    duration: float
    area: float

    def __post_init__(self) -> None:
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ValueError(f"period must be positive, got {self.period}")
        if not (0.0 < self.duration <= self.period):
            raise ValueError(
                f"duration must satisfy 0 < duration <= period, got {self.duration}"
            )
        if not (self.area >= 0.0):
            raise ValueError(f"area must be >= 0, got {self.area}")

    @property
    def height(self) -> float:
        return self.area / self.duration


@dataclass(frozen=True)
class JitterSpec:
    """Half-widths of uniform per-pulse deviations of period/duration/area.

    Each pulse independently draws X' = X + dev * U with U ~ Uniform(-1, 1).
    Deviations must leave the drawn period positive; the drawn duration is
    clamped into (0, period'] and the drawn area into [0, inf).
    """

    period_dev: float = 0.0
    duration_dev: float = 0.0
    area_dev: float = 0.0

    def __post_init__(self) -> None:
        for name in ("period_dev", "duration_dev", "area_dev"):
            v = getattr(self, name)
            if not (v >= 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be a finite value >= 0, got {v}")


@dataclass(frozen=True)
class ChaoticSpec:
    """Deterministic pulse-height modulation by the logistic map.

    Pulse n carries height (area/duration) * L_n with
    L_{n+1} = logistic_r * (L_n - L_n^2), iterated from seed_intensity.
    For logistic_r = 3.9 the sequence is chaotic and fills (0, 1).
    """

    logistic_r: float = 3.9
    seed_intensity: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.logistic_r <= 4.0):
            raise ValueError(f"logistic_r must lie in (0, 4], got {self.logistic_r}")
        if not (0.0 <= self.seed_intensity < 1.0):
            raise ValueError(
                f"seed_intensity must lie in [0, 1), got {self.seed_intensity}"
            )


@dataclass(frozen=True)
class ShotNoiseSpec:
    """Poisson shot noise: arrivals at rate `rate`, each depositing a
    rectangle of area `strength` into a single grid cell (height strength/dt).

    The time-averaged signal is strength * rate.
    """

    strength: float
    rate: float

    def __post_init__(self) -> None:
        for name in ("strength", "rate"):
            v = getattr(self, name)
            if not (v >= 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be a finite value >= 0, got {v}")


class SampledSignal:
    """A piecewise-constant control c(t) on `grid`, as maximal runs of cells.

    _runs = (levels, ids, lengths): run i holds levels[ids[i]] for lengths[i]
    cells.  Ids are structural: 0 is every sample's gap, c = 0, 1 a regular
    train's pulses; each jittered or chaotic pulse and each shot count has
    its own, and cell values are numbered by value (see _cell_runs).
    `values`, c at the midpoints, is formed on first use if not given.
    """

    def __init__(self, grid: TimeGrid, values=None, _runs=None) -> None:
        if _runs is None:
            values = grid.on_cells(values, "values")
            _runs = _cell_runs(values)
        if not np.all(np.isfinite(_runs[0])):
            raise ValueError("signal values must be finite")
        self.grid, self._values, self._runs = grid, values, _runs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            levels, ids, lengths = self._runs
            self._values = np.repeat(levels.take(ids), lengths)
        return self._values


def _joined(level: np.ndarray, ids: np.ndarray, lengths=None, cuts=0) -> tuple:
    """Runs (ids, lengths) joined to the run before where their `level`s are
    equal, but not at the run indexes `cuts`; lengths None: a cell each."""
    first = np.ones(len(level) + 1, dtype=bool)  # and one past the last run
    np.not_equal(level[1:], level[:-1], out=first[1:-1])
    first[cuts] = True
    if lengths is not None and first.all():
        return ids, lengths
    first = np.flatnonzero(first)
    return ids.take(first[:-1]), (np.diff(first) if lengths is None
                                  else np.add.reduceat(lengths, first[:-1]))


def _cell_runs(values: np.ndarray) -> tuple:
    """Maximal runs of cell values, their levels numbered by value after the
    gap, level 0; the values are not checked, so a nan reaches the kernel."""
    starts, lengths = _joined(values, np.arange(len(values)))
    levels, ids = np.unique(values.take(starts), return_inverse=True)
    return np.append(0.0, levels), ids + 1, lengths


def _effective_runs(runs, omega: float) -> tuple:
    """The runs of E = omega + c over the _runs of a block, as solve_kernel_riccati
    takes them: the gap, each row's levels, and the runs at equal E joined."""
    levels, ids, lengths = zip(*runs)
    level = omega + np.concatenate([[0.0]] + [row[1:] for row in levels])
    shift = np.cumsum([0] + [len(row) - 1 for row in levels[:-1]])  # to each row's columns
    column = np.concatenate([np.where(i > 0, i + f, 0) for i, f in zip(ids, shift)])
    rows = np.cumsum([0] + [len(row) for row in ids[:-1]])
    return (level, *_joined(level.take(column), column, np.concatenate(lengths), rows))


def _draw_jittered_pulses(
    spec: PulseTrainSpec,
    jitter: JitterSpec,
    seed: Seed,
    t_max: float,
):
    """Draw per-pulse (end_time, duration, height) arrays covering [0, t_max].

    Pulse n ends at T_n = n*period + sum of period deviations so far; for
    zero deviations the edges reduce to exact multiples of the base period.
    Per pulse the draws happen in a fixed order (period, duration, area) so
    a given seed always yields the same train.  The uniforms are drawn in
    chunks of the expected pulse count, which consumes the stream exactly as
    one draw of three per pulse would, and the deviations are summed in the
    same sequential order, so the train does not depend on the chunking.
    """
    rng = _rng(seed)
    chunk = int(t_max / spec.period) + 2
    parts = []
    dev_sum = 0.0
    n = 0
    while True:
        u = rng.uniform(-1.0, 1.0, size=(chunk, 3))
        period_devs = jitter.period_dev * u[:, 0]
        periods = spec.period + period_devs
        dev_sums = np.cumsum(np.concatenate(([dev_sum], period_devs)))[1:]
        ends = np.arange(n + 1, n + chunk + 1) * spec.period + dev_sums
        # clamp, never redraw: duration into (0, period'], area into [0, inf)
        durations = np.minimum(
            np.maximum(spec.duration + jitter.duration_dev * u[:, 1], _MIN_DUTY * periods),
            periods,
        )
        areas = np.maximum(spec.area + jitter.area_dev * u[:, 2], 0.0)
        # the train ends with the first pulse that starts past t_max
        past = np.flatnonzero(ends - durations > t_max)
        count = past[0] + 1 if past.size else chunk
        if not np.all(periods[:count] > 0.0):
            raise ValueError(
                "period_dev admits non-positive pulse periods; reduce it below the base period"
            )
        parts.append((ends[:count], durations[:count], areas[:count] / durations[:count]))
        if past.size:
            return tuple(np.concatenate(column) for column in zip(*parts))
        dev_sum = dev_sums[-1]
        n += chunk


def _jittered_height_bound(spec: PulseTrainSpec, jitter: JitterSpec) -> float:
    """Upper bound on the heights _draw_jittered_pulses can draw.

    The largest area over the shortest duration the clamp lets through;
    meaningful only for period_dev < period.  A shortest duration that
    underflows to zero gives an infinite bound, as the sampler's own
    division would.
    """
    shortest_period = spec.period - jitter.period_dev
    shortest = min(max(spec.duration - jitter.duration_dev, _MIN_DUTY * shortest_period),
                   shortest_period)
    return (spec.area + jitter.area_dev) / shortest if shortest > 0.0 else np.inf


def _logistic_intensities(chaos: ChaoticSpec, count: int) -> np.ndarray:
    """First `count` iterates L_1..L_count of the logistic map."""
    out = np.empty(count)
    x = chaos.seed_intensity
    for i in range(count):
        x = chaos.logistic_r * (x - x * x)
        out[i] = x
    return out


def _sample_shot_noise(
    spec: ShotNoiseSpec, seed: Seed, grid: TimeGrid
) -> SampledSignal:
    """Poisson impulse train binned on the grid.

    Each arrival adds strength/dt to the cell it lands in; cells may hold
    several arrivals, and a count is its level's id, or past n_steps counts
    the levels are numbered by value.  Resolving individual arrivals needs
    rate * dt well below one; SignalFamily.check warns above 0.1, and this
    sampler does not.  A cell whose arrivals stack past the float range
    raises NumericOverflowError.
    """
    rng = _rng(seed)
    counts = rng.poisson(spec.rate * grid.dt, size=grid.n_steps)
    height = spec.strength / grid.dt
    # the heights grow with the count, so the fullest cell overflows first
    peak = int(counts.max())
    if not math.isfinite(peak * height):
        raise NumericOverflowError(
            f"{peak} shot arrivals in one cell of dt = {grid.dt!r} at signal.strength = "
            f"{spec.strength!r} give a height beyond the float range"
        )
    values = counts * height
    return SampledSignal(grid, values, (np.arange(peak + 1) * height, *_joined(values, counts))
                         if peak < grid.n_steps else None)


# family -> {SignalFamily attribute: spec class}; the one place the families are listed
FAMILY_SPECS = {
    "none": {},
    "regular": {"pulse": PulseTrainSpec},
    "jittered": {"pulse": PulseTrainSpec, "jitter": JitterSpec},
    "chaotic": {"pulse": PulseTrainSpec, "chaos": ChaoticSpec},
    "shot": {"shot": ShotNoiseSpec},
}


@dataclass(frozen=True)
class SignalFamily:
    """Config-level description of one control family.

    kind is a key of FAMILY_SPECS, and exactly the spec attributes listed
    there for it are set.  sample() is the single entry point used by
    ensembles and the experiment runner; deterministic kinds ignore the seed.
    check() holds the rules for whether a grid can carry the family.
    """

    kind: str
    pulse: Optional[PulseTrainSpec] = None
    jitter: Optional[JitterSpec] = None
    chaos: Optional[ChaoticSpec] = None
    shot: Optional[ShotNoiseSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_SPECS:
            raise ValueError(
                f"unknown signal kind {self.kind!r}; expected one of {tuple(FAMILY_SPECS)}"
            )
        specs = FAMILY_SPECS[self.kind]
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            if field.name not in specs and value is not None:
                raise ValueError(f"signal kind {self.kind!r} takes no field {field.name!r}")
            if field.name in specs and not isinstance(value, specs[field.name]):
                raise ValueError(f"signal kind {self.kind!r} requires field {field.name!r}")

    @property
    def stochastic(self) -> bool:
        return self.kind in ("jittered", "shot")

    def sample(self, seed: Seed, grid: TimeGrid) -> SampledSignal:
        return sample_family(self, seed, grid)

    def check(self, grid: TimeGrid) -> None:
        """Raise ValueError if sample() cannot resolve or represent this family on `grid`.

        Shot noise too coarse for the grid is still sampled, with a warning.
        """
        pulse, jitter, shot = self.pulse, self.jitter, self.shot
        # a pulse shorter than a cell is sampled at most once, or skipped: it aliases
        if pulse is not None and pulse.duration < grid.dt:
            raise ValueError(
                f"signal.duration = {pulse.duration!r} is shorter than the grid "
                f"step dt = {grid.dt!r}; the pulses would alias"
            )
        # the uniform draw reaches -1, so period - period_dev itself must stay positive
        if jitter is not None and jitter.period_dev >= pulse.period:
            raise ValueError(
                f"signal.period_dev = {jitter.period_dev!r} is not below signal.period = "
                f"{pulse.period!r}; a drawn pulse period must stay positive"
            )
        # the largest height each sampler can produce must be a float
        if pulse is not None and not math.isfinite(pulse.height):
            raise ValueError(
                f"signal.area = {pulse.area!r} over signal.duration = {pulse.duration!r} "
                "gives a pulse height beyond the float range"
            )
        if jitter is not None and not math.isfinite(_jittered_height_bound(pulse, jitter)):
            raise ValueError(
                f"signal.area_dev = {jitter.area_dev!r} lets a drawn pulse height, area + "
                "area_dev over the shortest drawn duration, exceed the float range"
            )
        if shot is not None and not math.isfinite(shot.strength / grid.dt):
            raise ValueError(
                f"signal.strength = {shot.strength!r} over the grid step dt = {grid.dt!r} "
                "gives a shot height beyond the float range"
            )
        if shot is not None and not shot.rate * grid.dt <= _POISSON_LAM_MAX:
            raise ValueError(
                f"signal.rate = {shot.rate!r} over the grid step dt = {grid.dt!r} gives "
                f"{shot.rate * grid.dt:.3g} arrivals per cell, past the Poisson sampler's "
                f"limit of {_POISSON_LAM_MAX:.3g}"
            )
        if shot is not None and shot.rate * grid.dt > _SHOT_RATE_DT_MAX:
            warnings.warn(
                f"shot rate * dt = {shot.rate * grid.dt:.3g} > {_SHOT_RATE_DT_MAX}: "
                f"signal.rate = {shot.rate!r} is not resolved by the grid step "
                f"dt = {grid.dt!r}; raise grid.n_steps or lower signal.rate",
                RuntimeWarning,
                stacklevel=_outside_stacklevel(),
            )


def _outside_stacklevel() -> int:
    """The stacklevel that takes a warning raised by this function's caller to
    the first frame outside pulseguard, where a config was built.

    A frame walk, since warnings.warn's skip_file_prefixes needs Python 3.12.
    A dataclass's generated __init__ runs in its module's globals, so a
    config's own constructor counts as inside.
    """
    frame = sys._getframe(1)
    level = 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] in _INSIDE:
        frame = frame.f_back
        level += 1
    return level


def _pulse_train(family: SignalFamily, seed: Seed, t_max: float):
    """(end_time, duration, height) arrays of a pulse family's train on [0, t_max]."""
    spec = family.pulse
    if family.kind == "jittered":
        return _draw_jittered_pulses(spec, family.jitter, seed, t_max)
    count = math.ceil(t_max / spec.period) + 1
    heights = np.full(count, spec.height)
    if family.kind == "chaotic":
        # pulse n's height times L_n, so seed_intensity = 0 is silent
        heights *= _logistic_intensities(family.chaos, count)
    return np.arange(1, count + 1) * spec.period, np.full(count, spec.duration), heights


def _sample_pulses(pulses, grid: TimeGrid, one_level: bool = False) -> SampledSignal:
    """Put a train of ascending (end_time, duration, height) arrays on the grid.

    The module's one window test, done per pulse: both edges of each pulse
    are searched in the midpoints, so that pulse n covers the midpoints
    from start_n, the first past end - duration, up to stop_n, the first
    past end.  A midpoint belongs to the first pulse that ends at or after
    it, so each start is clipped into [stop_{n-1}, stop_n]: where rounding
    lets two windows overlap, the earlier pulse keeps the shared midpoints.
    The runs are a gap, a pulse and so on; with `one_level` every pulse is level 1.
    """
    ends, durations, heights = pulses
    t = grid.midpoints
    edges = np.empty(2 * len(ends), dtype=np.intp)
    edges[::2] = np.searchsorted(t, ends - durations, side="right")
    edges[1::2] = np.searchsorted(t, ends, side="right")
    # start_n <= stop_n already, so a running maximum is the clip
    np.maximum.accumulate(edges, out=edges)
    levels = np.concatenate(([0.0], heights[:1] if one_level else heights))
    ids = np.zeros(2 * len(ends) + 1, dtype=np.intp)
    ids[1::2] = 1 if one_level else np.arange(1, len(ends) + 1)
    lengths = np.diff(edges, prepend=0, append=len(t))
    kept = lengths > 0
    ids, lengths = _joined(levels.take(ids[kept]), ids[kept], lengths[kept])
    return SampledSignal(grid, _runs=(levels, ids, lengths))


def sample_family(family: SignalFamily, seed: Seed, grid: TimeGrid) -> SampledSignal:
    if family.kind == "shot":
        return _sample_shot_noise(family.shot, seed, grid)
    if family.kind == "none":
        return _sample_pulses((np.zeros(0),) * 3, grid)
    return _sample_pulses(_pulse_train(family, seed, grid.t_max), grid, family.kind == "regular")


def effective_frequency(signal: SampledSignal, omega: float = 1.0) -> np.ndarray:
    """Shifted splitting E(t) = omega + c(t) at the grid midpoints."""
    return omega + signal.values
