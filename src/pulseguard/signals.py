"""Control-signal generators: periodic pulse trains and their noisy variants.

The control enters the physics only through the shifted level splitting
E(t) = omega + c(t).  All generators produce c(t) sampled at the midpoints of
a TimeGrid, which sidesteps edge ambiguity for piecewise-constant signals.

Randomness is drawn from numpy's PCG64 generator.  Substreams are derived
from (master_seed, stream_index) via numpy SeedSequence spawn keys, so an
ensemble is reproducible run to run and independent of how trajectories are
distributed over workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .numerics import TimeGrid

__all__ = [
    "PulseTrainSpec",
    "JitterSpec",
    "ChaoticSpec",
    "ShotNoiseSpec",
    "SampledSignal",
    "SignalFamily",
    "FAMILY_SPECS",
    "substream",
    "regular_pulse_value",
    "sample_regular",
    "draw_jittered_pulses",
    "jittered_height_bound",
    "sample_jittered",
    "logistic_intensities",
    "sample_chaotic",
    "sample_shot_noise",
    "sample_family",
    "effective_frequency",
]

Seed = Union[int, np.random.SeedSequence]

# duration clamp floor, as a fraction of the drawn period
_MIN_DUTY = 1.0e-9
# largest shot rate * dt whose arrivals the grid still resolves
_SHOT_RATE_DT_MAX = 0.1


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

    Pulse n (n >= 1) occupies the window (n*period - duration, n*period]
    with height area/duration, so the area per pulse is the phase kicked
    into the qubit by a single pulse.
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

    @property
    def duty(self) -> float:
        return self.duration / self.period


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
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_steps,):
            raise ValueError(
                f"values must have shape ({self.grid.n_steps},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)


def regular_pulse_value(t, spec: PulseTrainSpec):
    """c(t) for the noise-free train; scalar or ndarray t, t >= 0.

    A point belongs to pulse n when n*period - duration < t <= n*period for
    some integer n >= 1; the pulse height is area/duration.
    """
    t = np.asarray(t, dtype=float)
    r = np.mod(t, spec.period)
    on = ((r > spec.period - spec.duration) | (r == 0.0)) & (t > 0.0)
    out = np.where(on, spec.height, 0.0)
    return out if out.ndim else float(out)


def sample_regular(spec: PulseTrainSpec, grid: TimeGrid) -> SampledSignal:
    return SampledSignal(grid, regular_pulse_value(grid.midpoints, spec))


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


def sample_jittered(
    spec: PulseTrainSpec,
    jitter: JitterSpec,
    seed: Seed,
    grid: TimeGrid,
) -> SampledSignal:
    """Pulse train with independent uniform jitter on each pulse."""
    ends, durations, heights = draw_jittered_pulses(spec, jitter, seed, grid.t_max)
    t = grid.midpoints
    idx = np.searchsorted(ends, t, side="left")
    idx = np.minimum(idx, len(ends) - 1)
    on = t > ends[idx] - durations[idx]
    values = np.where(on & (t <= ends[idx]), heights[idx], 0.0)
    return SampledSignal(grid, values)


def logistic_intensities(chaos: ChaoticSpec, count: int) -> np.ndarray:
    """First `count` iterates L_1..L_count of the logistic map."""
    out = np.empty(count)
    x = chaos.seed_intensity
    for i in range(count):
        x = chaos.logistic_r * (x - x * x)
        out[i] = x
    return out


def sample_chaotic(
    spec: PulseTrainSpec, chaos: ChaoticSpec, grid: TimeGrid
) -> SampledSignal:
    """Regularly timed pulses whose heights follow the logistic map.

    Pulse n has height (area/duration) * L_n; the all-zero fixed point
    seed_intensity = 0 therefore yields a silent signal.
    """
    t = grid.midpoints
    n_pulses = int(np.ceil(grid.t_max / spec.period)) + 1
    intensities = logistic_intensities(chaos, n_pulses)
    r = np.mod(t, spec.period)
    on = ((r > spec.period - spec.duration) | (r == 0.0)) & (t > 0.0)
    pulse_index = np.where(r == 0.0, np.rint(t / spec.period), np.ceil(t / spec.period))
    pulse_index = np.clip(pulse_index.astype(int), 1, n_pulses)
    values = np.where(on, spec.height * intensities[pulse_index - 1], 0.0)
    return SampledSignal(grid, values)


def sample_shot_noise(
    spec: ShotNoiseSpec, seed: Seed, grid: TimeGrid
) -> SampledSignal:
    """Poisson impulse train binned on the grid.

    Each arrival adds strength/dt to the cell it lands in; cells may hold
    several arrivals.  Resolving individual arrivals needs rate * dt well
    below one, so a warning is raised above 0.1.
    """
    lam = spec.rate * grid.dt
    if lam > _SHOT_RATE_DT_MAX:
        warnings.warn(
            f"shot rate * dt = {lam:.3g} > {_SHOT_RATE_DT_MAX}: arrivals are not resolved "
            "by the grid",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = _rng(seed)
    counts = rng.poisson(lam, size=grid.n_steps)
    return SampledSignal(grid, counts * (spec.strength / grid.dt))


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


def sample_family(family: SignalFamily, seed: Seed, grid: TimeGrid) -> SampledSignal:
    if family.kind == "regular":
        return sample_regular(family.pulse, grid)
    if family.kind == "jittered":
        return sample_jittered(family.pulse, family.jitter, seed, grid)
    if family.kind == "chaotic":
        return sample_chaotic(family.pulse, family.chaos, grid)
    if family.kind == "shot":
        return sample_shot_noise(family.shot, seed, grid)
    return SampledSignal(grid, np.zeros(grid.n_steps))  # "none"


def effective_frequency(signal: SampledSignal, omega: float = 1.0) -> np.ndarray:
    """Shifted splitting E(t) = omega + c(t) at the grid midpoints."""
    return omega + signal.values
