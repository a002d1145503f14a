"""Control-signal generators: pulse trains and Poisson shot noise.

The control enters the physics only through the shifted level splitting
E(t) = omega + c(t).  All generators produce c(t) at the midpoints of a
TimeGrid, which sidesteps edge ambiguity, as runs of cells.

One block sampler, sample_family, samples the controls of a block of
trajectories, one per seed, and returns them as the runs of E that the
batched kernel takes; SignalFamily.sample is a block of one, as a
SampledSignal.  Each trajectory draws from its own seed, as it would
alone, and everything after the draws runs once over the block's rows.

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
from typing import Optional, Sequence, Union

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
    its own, and cell values are numbered by value (see _cell_runs).  A row
    of a block shares the block's levels.  `values`, c at the midpoints, is
    formed on first use if not given.
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


def _effective_runs(level: np.ndarray, column: np.ndarray, length: np.ndarray, n: int,
                    omega: float) -> tuple:
    """The runs of E = omega + c, as solve_kernel_riccati takes them, from
    runs of c that fill whole rows of n cells: a ValueError if a level of c
    is not finite, then each row's neighbours at equal E joined."""
    if not np.all(np.isfinite(level)):
        raise ValueError("signal values must be finite")
    level = omega + level
    rows = np.searchsorted(np.cumsum(length), np.arange(0, length.sum(), n), side="right")
    return (level, *_joined(level.take(column), column, length, rows))


def _rows(runs: tuple, grid: TimeGrid) -> list:
    """A block's runs of c as one SampledSignal per row."""
    level, column, length = runs
    cuts = np.searchsorted(np.cumsum(length), np.arange(grid.n_steps, length.sum(), grid.n_steps),
                           side="right")
    return [SampledSignal(grid, _runs=(level, ids, lengths))
            for ids, lengths in zip(np.split(column, cuts), np.split(length, cuts))]


def _draw_jittered_pulses(spec: PulseTrainSpec, jitter: JitterSpec, seeds: Sequence[Seed],
                          t_max: float):
    """Draw one train per seed, each covering [0, t_max]: the trains' (end_time,
    duration, height) arrays, row after row, and each train's pulse count.

    Pulse n ends at T_n = n*period + sum of period deviations so far; for
    zero deviations the edges reduce to exact multiples of the base period.
    Per pulse the draws happen in a fixed order (period, duration, area) so
    a given seed always yields the same train.  Each train draws its
    uniforms in chunks of the expected pulse count, which consumes its
    stream exactly as one draw of three per pulse would, and sums its
    deviations in the same sequential order, so a train depends neither on
    the chunking nor on the other trains.  Every train draws its first
    chunk into one array, then the trains still open draw their next, and
    each chunk's arithmetic runs once over the trains that drew it, in
    place where it can.
    """
    rngs = [_rng(seed) for seed in seeds]
    chunk = int(t_max / spec.period) + 2
    # (period, duration, area) of each open train's next chunk, worked on in place
    draws = np.empty((3, len(rngs), chunk))
    # each open train's period deviations, after the sum of its earlier ones
    sums = np.zeros((len(rngs), chunk + 1))
    rows = np.arange(len(rngs))
    parts = []
    while len(rows):
        u, devs = draws[:, : len(rows)], sums[: len(rows)]
        for i, row in enumerate(rows.tolist()):
            u[:, i] = rngs[row].uniform(-1.0, 1.0, size=(chunk, 3)).T
        periods, durations, areas = u
        np.multiply(jitter.period_dev, periods, out=devs[:, 1:])
        np.add(spec.period, devs[:, 1:], out=periods)
        np.cumsum(devs, axis=1, out=devs)
        carry = devs[:, -1].copy()
        first = len(parts) * chunk + 1
        ends = np.add(np.arange(first, first + chunk) * spec.period, devs[:, 1:], out=devs[:, 1:])
        # clamp, never redraw: duration into (0, period'], area into [0, inf)
        durations *= jitter.duration_dev
        durations += spec.duration
        np.maximum(durations, _MIN_DUTY * periods, out=durations)
        np.minimum(durations, periods, out=durations)
        areas *= jitter.area_dev
        areas += spec.area
        np.maximum(areas, 0.0, out=areas)
        np.divide(areas, durations, out=areas)
        # a train ends with the first pulse that starts past t_max
        past = ends - durations > t_max
        ended = past.any(axis=1)
        kept = np.arange(chunk) <= np.where(ended, past.argmax(axis=1), chunk)[:, np.newaxis]
        if np.any(kept & ~(periods > 0.0)):
            raise ValueError(
                "period_dev admits non-positive pulse periods; reduce it below the base period"
            )
        # the ends take the place of the periods, which nothing reads after the check
        periods[...] = ends
        parts.append((rows, kept.sum(axis=1), u[:, kept]))
        sums[: np.count_nonzero(~ended), 0] = carry[~ended]
        rows = rows[~ended]
    del draws, sums
    counts = np.zeros(len(rngs), dtype=np.intp)
    for rows, count, _ in parts:
        counts[rows] += count
    trains = np.empty((3, counts.sum()))
    # chunk k of a train follows its first k, which were full
    start = np.cumsum(counts) - counts
    for k, (rows, count, part) in enumerate(parts):
        at = np.repeat(start[rows] + k * chunk - (np.cumsum(count) - count), count)
        trains[:, at + np.arange(len(at))] = part
    return (*trains, counts)


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


def _shot_runs(spec: ShotNoiseSpec, seeds: Sequence[Seed], grid: TimeGrid,
               omega: float = 0.0) -> tuple:
    """Poisson impulse trains binned on the grid, one row per seed, as the
    runs of E = omega + c (see _effective_runs).

    Each arrival adds strength/dt to the cell it lands in; cells may hold
    several arrivals, and a count is its level's id, or past n_steps counts
    in the block the levels are numbered by value.  Each row draws its
    counts from its own stream, and one comparison over the block cuts the
    runs of equal counts.  Resolving individual arrivals needs rate * dt
    well below one; SignalFamily.check warns above 0.1, and this sampler
    does not.  A cell whose arrivals stack past the float range raises
    NumericOverflowError, naming the first such row.
    """
    n = grid.n_steps
    counts = np.empty((len(seeds), n), dtype=np.int64)
    for row, seed in zip(counts, seeds):
        row[...] = _rng(seed).poisson(spec.rate * grid.dt, size=n)
    height = spec.strength / grid.dt
    # the heights grow with the count, so a row's fullest cell overflows first
    peaks = counts.max(axis=1)
    for row, peak in enumerate(peaks.tolist()):
        if not math.isfinite(peak * height):
            raise NumericOverflowError(
                f"{peak} shot arrivals in one cell of dt = {grid.dt!r} at signal.strength = "
                f"{spec.strength!r} give a height beyond the float range", row)
    counts = counts.ravel()
    column, length = _joined(counts, counts, cuts=np.arange(0, len(counts), n))
    if peaks.max() < n:
        level = np.arange(peaks.max() + 1) * height
    else:
        level, column = np.unique(column * height, return_inverse=True)
        level, column = np.append(0.0, level), column + 1
    return _effective_runs(level, column, length, n, omega)


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
    there for it are set.  sample() is one trajectory's control, a block of
    one of sample_family, which the experiment runner calls on a whole
    block; deterministic kinds ignore the seed.
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
        """The control of one trajectory: a block of one."""
        return SampledSignal(grid, _runs=sample_family(self, [seed], grid))

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


def _pulse_trains(family: SignalFamily, seeds: Sequence[Seed], t_max: float):
    """The trains of a pulse family on [0, t_max], one per seed, as
    _draw_jittered_pulses returns them; a deterministic train is the same
    for every seed."""
    if family.kind == "jittered":
        return _draw_jittered_pulses(family.pulse, family.jitter, seeds, t_max)
    train = (np.zeros(0),) * 3
    if family.kind != "none":
        spec = family.pulse
        count = math.ceil(t_max / spec.period) + 1
        heights = np.full(count, spec.height)
        if family.kind == "chaotic":
            # pulse n's height times L_n, so seed_intensity = 0 is silent
            heights *= _logistic_intensities(family.chaos, count)
        train = (np.arange(1, count + 1) * spec.period, np.full(count, spec.duration), heights)
    return (*(np.tile(column, len(seeds)) for column in train), np.full(len(seeds), len(train[0])))


def _pulse_runs(trains, grid: TimeGrid, omega: float = 0.0, one_level: bool = False) -> tuple:
    """Put trains of ascending (end_time, duration, height) arrays, row after
    row, with each row's pulse count, on the grid, as the runs of
    E = omega + c (see _effective_runs).

    The module's one window test, done per pulse: both edges of each pulse
    are searched in the midpoints, so that pulse n covers the midpoints
    from start_n, the first past end - duration, up to stop_n, the first
    past end.  A midpoint belongs to the first pulse that ends at or after
    it, so each start is clipped into [stop_{n-1}, stop_n]: where rounding
    lets two windows overlap, the earlier pulse keeps the shared midpoints.
    Each row's runs are a gap, a pulse and so on, then a gap; the empty
    ones are dropped.  Levels: the gap, then each pulse's height, or with
    `one_level` each row's first.  The searches, the clip and the runs
    each run once over the whole block.
    """
    ends, durations, heights, counts = trains
    n = grid.n_steps
    t = grid.midpoints
    row = np.repeat(np.arange(len(counts)), counts)
    # each row's runs are a gap, a pulse and so on, then a gap, bounded in
    # cells of the block: run 2j + row + 1 is pulse j's
    at = 2 * np.arange(len(ends)) + row + 1
    bounds = np.repeat(np.arange(0, len(counts) * n + 1, n), np.append(2 * counts + 1, 1))
    bounds[at] += np.searchsorted(t, ends - durations, side="right")
    bounds[at + 1] += np.searchsorted(t, ends, side="right")
    # start_n <= stop_n already, and a row's bounds lie past the row
    # before's, so one running maximum is the clip of every row
    np.maximum.accumulate(bounds, out=bounds)
    column = np.zeros(len(bounds) - 1, dtype=np.intp)
    if one_level:
        heights = heights.take(np.cumsum(counts) - counts)
        column[at] = row + 1
    else:
        column[at] = np.arange(1, len(ends) + 1)
    del row, at
    length = np.diff(bounds)
    del bounds
    kept = length > 0
    column, length = column[kept], length[kept]
    del kept
    return _effective_runs(np.concatenate(([0.0], heights)), column, length, n, omega)


def sample_family(family: SignalFamily, seeds: Sequence[Seed], grid: TimeGrid,
                  omega: float = 0.0) -> tuple:
    """The controls of a block, one trajectory per seed, as the runs of
    E = omega + c that solve_kernel_riccati takes: (level, column, length),
    run i holding E = level[column[i]] for length[i] cells, row after row.

    Level 0 is omega, every row's gap.  Each row draws from its own seed
    as it would alone, and its runs are maximal (none empty, no two
    neighbours at equal E) and the same in any block, up to the numbering
    of their levels.  A level of c that is not finite is a ValueError; a
    shot cell that overflows is a NumericOverflowError whose `row` is its
    position in seeds.
    """
    if family.kind == "shot":
        return _shot_runs(family.shot, seeds, grid, omega)
    return _pulse_runs(_pulse_trains(family, seeds, grid.t_max), grid, omega,
                       family.kind == "regular")


def effective_frequency(signal: SampledSignal, omega: float = 1.0) -> np.ndarray:
    """Shifted splitting E(t) = omega + c(t) at the grid midpoints."""
    return omega + signal.values
