"""Control-signal generators: pulse trains and Poisson shot noise.

The control enters the physics only through the shifted level splitting
E(t) = omega + c(t).  All generators produce c(t) sampled at the midpoints of
a TimeGrid, which sidesteps edge ambiguity for piecewise-constant signals.

Every pulse family (regular, chaotic, jittered) is a train of
(end, duration, height) triples, and one sampler puts any train on the grid.
The window convention: a midpoint t lies in a pulse when
end - duration < t <= end, and there c(t) is that pulse's height; where
rounding lets two windows overlap, t belongs to the first pulse that ends
at or after it.  The sampler searches each pulse's two edges in the
midpoints, a few hundred searches per train rather than one per midpoint,
and fills the runs between them.  The families differ only in the triples
they build.

Randomness is drawn from numpy's PCG64 generator.  Substreams are derived
from (master_seed, stream_index) via numpy SeedSequence spawn keys, so an
ensemble is reproducible run to run and independent of how trajectories are
distributed over workers.
"""

from __future__ import annotations

import math
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
    "draw_jittered_pulses",
    "jittered_height_bound",
    "logistic_intensities",
    "sample_shot_noise",
    "sample_family",
    "effective_frequency",
]

Seed = Union[int, np.random.SeedSequence]

# duration clamp floor, as a fraction of the drawn period
_MIN_DUTY = 1.0e-9
# largest shot rate * dt whose arrivals the grid still resolves
_SHOT_RATE_DT_MAX = 0.1
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


@dataclass(frozen=True)
class SampledSignal:
    """Control values c(t) at the midpoints of `grid` (length n_steps)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.grid.on_cells(self.values, "values")
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)


def draw_jittered_pulses(
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


def jittered_height_bound(spec: PulseTrainSpec, jitter: JitterSpec) -> float:
    """Upper bound on the heights draw_jittered_pulses can draw.

    The largest area over the shortest duration the clamp lets through;
    meaningful only for period_dev < period.  A shortest duration that
    underflows to zero gives an infinite bound, as the sampler's own
    division would.
    """
    shortest_period = spec.period - jitter.period_dev
    shortest = min(max(spec.duration - jitter.duration_dev, _MIN_DUTY * shortest_period),
                   shortest_period)
    return (spec.area + jitter.area_dev) / shortest if shortest > 0.0 else np.inf


def logistic_intensities(chaos: ChaoticSpec, count: int) -> np.ndarray:
    """First `count` iterates L_1..L_count of the logistic map."""
    out = np.empty(count)
    x = chaos.seed_intensity
    for i in range(count):
        x = chaos.logistic_r * (x - x * x)
        out[i] = x
    return out


def sample_shot_noise(
    spec: ShotNoiseSpec, seed: Seed, grid: TimeGrid
) -> SampledSignal:
    """Poisson impulse train binned on the grid.

    Each arrival adds strength/dt to the cell it lands in; cells may hold
    several arrivals.  Resolving individual arrivals needs rate * dt well
    below one; SignalFamily.check warns above 0.1, and this sampler does
    not.  A cell whose arrivals stack past the float range raises
    NumericOverflowError.
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
    return SampledSignal(grid, counts * height)


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
        if jitter is not None and not math.isfinite(jittered_height_bound(pulse, jitter)):
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
                stacklevel=2,
            )


def _pulse_train(family: SignalFamily, seed: Seed, t_max: float):
    """(end_time, duration, height) arrays of a pulse family's train on [0, t_max]."""
    spec = family.pulse
    if family.kind == "jittered":
        return draw_jittered_pulses(spec, family.jitter, seed, t_max)
    count = math.ceil(t_max / spec.period) + 1
    heights = np.full(count, spec.height)
    if family.kind == "chaotic":
        # pulse n's height times L_n, so seed_intensity = 0 is silent
        heights *= logistic_intensities(family.chaos, count)
    return np.arange(1, count + 1) * spec.period, np.full(count, spec.duration), heights


def _sample_pulses(pulses, grid: TimeGrid) -> SampledSignal:
    """Put a train of ascending (end_time, duration, height) arrays on the grid.

    The module's one window test, done per pulse: both edges of each pulse
    are searched in the midpoints, so that pulse n covers the midpoints
    from start_n, the first past end - duration, up to stop_n, the first
    past end.  A midpoint belongs to the first pulse that ends at or after
    it, so each start is clipped into [stop_{n-1}, stop_n]: where rounding
    lets two windows overlap, the earlier pulse keeps the shared midpoints.
    The signal is then one run of zeros and one run of the height per pulse.
    """
    ends, durations, heights = pulses
    t = grid.midpoints
    edges = np.empty(2 * len(ends), dtype=np.intp)
    edges[::2] = np.searchsorted(t, ends - durations, side="right")
    edges[1::2] = np.searchsorted(t, ends, side="right")
    # start_n <= stop_n already, so a running maximum is the clip
    np.maximum.accumulate(edges, out=edges)
    levels = np.zeros(2 * len(ends) + 1)
    levels[1::2] = heights
    return SampledSignal(grid, np.repeat(levels, np.diff(edges, prepend=0, append=len(t))))


def sample_family(family: SignalFamily, seed: Seed, grid: TimeGrid) -> SampledSignal:
    if family.kind == "shot":
        return sample_shot_noise(family.shot, seed, grid)
    if family.kind == "none":
        return SampledSignal(grid, np.zeros(grid.n_steps))
    return _sample_pulses(_pulse_train(family, seed, grid.t_max), grid)


def effective_frequency(signal: SampledSignal, omega: float = 1.0) -> np.ndarray:
    """Shifted splitting E(t) = omega + c(t) at the grid midpoints."""
    return omega + signal.values
