"""Control-signal generators and their statistics.

Conventions under test: pulse n >= 1 occupies (n*period - duration,
n*period] with height area/duration; signals are sampled at grid cell
midpoints; every stochastic family is a pure function of its seed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseguard.numerics import NumericOverflowError, TimeGrid
from pulseguard.signals import (
    _POISSON_LAM_MAX,
    FAMILY_SPECS,
    ChaoticSpec,
    JitterSpec,
    PulseTrainSpec,
    SampledSignal,
    ShotNoiseSpec,
    SignalFamily,
    _draw_jittered_pulses,
    _effective_runs,
    _jittered_height_bound,
    _logistic_intensities,
    _pulse_train,
    _sample_pulses,
    _sample_shot_noise,
    effective_frequency,
    substream,
)

BASE = PulseTrainSpec(period=0.02, duration=0.01, area=0.2)
# on TimeGrid(10, 5000) the pulse starts of this train fall on cell midpoints
EDGE = PulseTrainSpec(period=0.02, duration=0.005, area=0.2)
EDGE_GRID = TimeGrid(t_max=10.0, n_steps=5000)


def regular(spec, grid):
    return SignalFamily(kind="regular", pulse=spec).sample(None, grid).values


def chaotic(spec, chaos, grid):
    return SignalFamily(kind="chaotic", pulse=spec, chaos=chaos).sample(None, grid).values


def jittered(spec, jitter, seed, grid):
    return SignalFamily(kind="jittered", pulse=spec, jitter=jitter).sample(seed, grid).values


def reference_sample(pulses, grid):
    """The sampler's rule searched the other way round: each midpoint is
    searched in the ends and tested against the window of the first pulse
    that ends at or after it."""
    ends, durations, heights = pulses
    t = grid.midpoints
    idx = np.minimum(np.searchsorted(ends, t, side="left"), len(ends) - 1)
    on = (t > ends[idx] - durations[idx]) & (t <= ends[idx])
    return np.where(on, heights[idx], 0.0)


# a dyadic step, so that multiples of dt / 2 are exact and pulse edges can
# land exactly on midpoints (odd multiples) or on nodes (even ones)
DYADIC_DT = 2.0**-6


@st.composite
def pulse_trains(draw):
    """A regular, chaotic or jittered pulse family and a grid to sample it on."""
    n_steps = draw(st.integers(min_value=1, max_value=3000))
    dt = draw(st.sampled_from([DYADIC_DT, 0.01]))
    grid = TimeGrid(t_max=n_steps * dt, n_steps=n_steps)
    half_cells = st.integers(min_value=1, max_value=120).map(lambda h: h * dt / 2.0)
    period = draw(st.one_of(half_cells, st.floats(min_value=dt, max_value=60.0 * dt)))
    duration = min(draw(st.one_of(
        st.just(period),  # duty 1: each pulse starts where the one before it ends
        half_cells,
        st.floats(min_value=1e-3, max_value=1.0).map(lambda f: f * period),
    )), period)
    pulse = PulseTrainSpec(period, duration, draw(st.floats(min_value=0.0, max_value=10.0)))
    kind = draw(st.sampled_from(["regular", "chaotic", "jittered"]))
    if kind == "regular":
        return SignalFamily(kind="regular", pulse=pulse), grid
    if kind == "chaotic":
        return SignalFamily(kind="chaotic", pulse=pulse, chaos=ChaoticSpec()), grid
    jitter = JitterSpec(
        # up to close below the period, where a drawn period can be 1e-6 of it
        period_dev=period * draw(st.one_of(st.just(0.0), st.just(1.0 - 1e-6),
                                           st.floats(min_value=0.0, max_value=0.999))),
        duration_dev=duration * draw(st.floats(min_value=0.0, max_value=2.0)),
        area_dev=draw(st.floats(min_value=0.0, max_value=10.0)),
    )
    return SignalFamily(kind="jittered", pulse=pulse, jitter=jitter), grid


def regular_at(t, spec=BASE):
    """The regular train at the time t, the one midpoint of TimeGrid(2*t, 1)."""
    return regular(spec, TimeGrid(t_max=2.0 * t, n_steps=1))[0]


class TestSpecs:
    def test_height_and_duty(self):
        assert BASE.height == pytest.approx(20.0)
        assert BASE.duration / BASE.period == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(period=0.0, duration=0.01, area=0.2),
            dict(period=0.02, duration=0.0, area=0.2),
            dict(period=0.02, duration=0.03, area=0.2),
            dict(period=0.02, duration=0.01, area=-1.0),
        ],
    )
    def test_pulse_validation(self, kwargs):
        with pytest.raises(ValueError):
            PulseTrainSpec(**kwargs)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            JitterSpec(period_dev=-0.1)

    def test_chaos_validation(self):
        with pytest.raises(ValueError):
            ChaoticSpec(logistic_r=4.5)
        with pytest.raises(ValueError):
            ChaoticSpec(seed_intensity=1.0)

    def test_shot_validation(self):
        with pytest.raises(ValueError):
            ShotNoiseSpec(strength=-0.1, rate=1.0)

    @pytest.mark.parametrize("strength, rate", [(np.inf, 1.0), (0.1, np.inf), (np.nan, 1.0),
                                                (0.1, np.nan)])
    def test_shot_rejects_non_finite(self, strength, rate):
        bad = "strength" if not np.isfinite(strength) else "rate"
        with pytest.raises(ValueError, match=f"{bad} must be a finite value"):
            ShotNoiseSpec(strength=strength, rate=rate)

    def test_family_rejects_foreign_spec(self):
        with pytest.raises(ValueError, match="takes no field 'shot'"):
            SignalFamily(kind="regular", pulse=BASE, shot=ShotNoiseSpec(1.0, 2.0))
        with pytest.raises(ValueError, match="requires field 'pulse'"):
            SignalFamily(kind="regular", pulse=JitterSpec())

    def test_family_specs_cover_every_spec_attribute(self):
        attrs = {attr for specs in FAMILY_SPECS.values() for attr in specs}
        assert attrs == {f.name for f in dataclasses.fields(SignalFamily)} - {"kind"}

    def test_family_requires_fields(self):
        with pytest.raises(ValueError, match="requires"):
            SignalFamily(kind="regular")
        with pytest.raises(ValueError, match="unknown"):
            SignalFamily(kind="sinusoidal")

    def test_family_stochastic_flag(self):
        assert SignalFamily(kind="shot", shot=ShotNoiseSpec(1.0, 2.0)).stochastic
        assert not SignalFamily(kind="regular", pulse=BASE).stochastic
        assert not SignalFamily(kind="none").stochastic


class TestRegular:
    def test_point_values(self):
        assert regular_at(0.005) == 0.0
        assert regular_at(0.015) == pytest.approx(20.0)
        # a midpoint is never 0, so the earliest one stands in for t = 0
        assert regular_at(np.nextafter(0.0, 1.0)) == 0.0

    def test_window_edges(self):
        # pulse window is half-open: (period - duration, period]
        assert regular_at(BASE.period) == pytest.approx(20.0)
        assert regular_at(BASE.period - BASE.duration) == 0.0

    def test_zero_area_silent(self):
        spec = PulseTrainSpec(period=0.02, duration=0.01, area=0.0)
        grid = TimeGrid(t_max=1.0, n_steps=500)
        assert np.all(regular(spec, grid) == 0.0)

    def test_full_duty_is_constant(self):
        spec = PulseTrainSpec(period=0.02, duration=0.02, area=0.2)
        grid = TimeGrid(t_max=10.0, n_steps=10000)
        assert np.all(regular(spec, grid) == spec.height)

    def test_grid_mean_aligned(self):
        grid = TimeGrid(t_max=10.0, n_steps=10000)
        mean = regular(BASE, grid).mean()
        assert mean == pytest.approx(BASE.area / BASE.period, abs=1e-12)

    def test_grid_mean_incommensurate(self):
        # one cell of edge error per period bounds the mean deviation
        grid = TimeGrid(t_max=10.0, n_steps=9973)
        mean = regular(BASE, grid).mean()
        bound = BASE.height * grid.dt / BASE.period
        assert abs(mean - BASE.area / BASE.period) <= bound

    @given(
        n=st.integers(min_value=0, max_value=250),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_membership_matches_integer_window(self, n, frac):
        # sample strictly inside a period, away from the on/off edge
        duty = BASE.duration / BASE.period
        if abs(frac - (1.0 - duty)) < 0.01:
            frac = 0.25
        t = (n + frac) * BASE.period
        inside = frac > 1.0 - duty
        expected = BASE.height if inside else 0.0
        assert regular_at(t) == pytest.approx(expected)


class TestSampler:
    @settings(max_examples=300)
    @given(case=pulse_trains(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_edge_search_is_the_midpoint_search(self, case, seed):
        family, grid = case
        train = _pulse_train(family, substream(seed, 0), grid.t_max)
        np.testing.assert_array_equal(_sample_pulses(train, grid).values,
                                      reference_sample(train, grid))

    def test_overlapping_windows_keep_the_earlier_pulse(self):
        # midpoints 0.5 .. 3.5; pulse 2's window (0.5, 2.5] covers pulse 1's
        grid = TimeGrid(t_max=4.0, n_steps=4)
        train = (np.array([1.5, 2.5, 4.5]), np.array([1.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(_sample_pulses(train, grid).values, [0.0, 1.0, 2.0, 0.0])
        np.testing.assert_array_equal(reference_sample(train, grid), [0.0, 1.0, 2.0, 0.0])


class TestJittered:
    GRID = TimeGrid(t_max=10.0, n_steps=10000)

    def test_zero_jitter_reduces_to_regular(self):
        # aligned, pulse starts on cell midpoints, incommensurate
        for spec, grid in [(BASE, self.GRID), (EDGE, EDGE_GRID),
                           (BASE, TimeGrid(t_max=10.0, n_steps=9973))]:
            values = jittered(spec, JitterSpec(), substream(5, 0), grid)
            np.testing.assert_array_equal(values, regular(spec, grid), err_msg=str(grid))

    def test_same_seed_bitwise(self):
        jit = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
        a = jittered(BASE, jit, substream(7, 3), self.GRID)
        b = jittered(BASE, jit, substream(7, 3), self.GRID)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        jit = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
        a = jittered(BASE, jit, substream(7, 3), self.GRID)
        b = jittered(BASE, jit, substream(7, 4), self.GRID)
        assert not np.array_equal(a, b)

    def test_area_mean_unbiased(self):
        """Per-pulse area has mean psi when the clamps never engage."""
        jit = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
        ends, durations, heights = _draw_jittered_pulses(BASE, jit, substream(42, 0), 200.0)
        areas = durations * heights
        three_se = 3.0 * jit.area_dev / np.sqrt(3.0) / np.sqrt(len(areas))
        assert abs(areas.mean() - BASE.area) < three_se

    def test_duration_clamped_into_period(self):
        # full-duty base with duration jitter forces the upper clamp
        spec = PulseTrainSpec(period=0.02, duration=0.02, area=0.2)
        jit = JitterSpec(duration_dev=0.01)
        ends, durations, heights = _draw_jittered_pulses(spec, jit, substream(1, 0), 5.0)
        periods = np.diff(np.concatenate([[0.0], ends]))
        assert np.all(durations <= periods + 1e-15)
        assert np.all(durations > 0.0)

    def test_area_clamped_nonnegative(self):
        jit = JitterSpec(area_dev=0.5)
        ends, durations, heights = _draw_jittered_pulses(BASE, jit, substream(2, 0), 5.0)
        assert np.all(heights >= 0.0)

    def test_excessive_period_dev_raises(self):
        jit = JitterSpec(period_dev=0.05)
        with pytest.raises(ValueError, match="period"):
            _draw_jittered_pulses(BASE, jit, substream(3, 0), 5.0)

    @pytest.mark.parametrize(
        "jit",
        [JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18),
         JitterSpec(duration_dev=0.01, area_dev=0.5),  # lower duration clamp engages
         JitterSpec(period_dev=0.019, duration_dev=0.02)],  # upper clamp, short periods
    )
    def test_height_bound_holds(self, jit):
        ends, durations, heights = _draw_jittered_pulses(BASE, jit, substream(4, 0), 20.0)
        assert heights.max() <= _jittered_height_bound(BASE, jit)

    def test_height_bound_infinite_when_duration_underflows(self):
        spec = PulseTrainSpec(period=1e-300, duration=1e-300, area=1.0)
        jit = JitterSpec(period_dev=np.nextafter(1e-300, 0.0), duration_dev=1e-300)
        assert _jittered_height_bound(spec, jit) == np.inf

    def test_pulse_edges_follow_period_draws(self):
        jit = JitterSpec(period_dev=0.004)
        ends, durations, heights = _draw_jittered_pulses(BASE, jit, substream(9, 0), 2.0)
        # every end time moves by the running sum of deviations, so gaps
        # between consecutive ends are the individual drawn periods
        gaps = np.diff(np.concatenate([[0.0], ends]))
        assert np.all(gaps > 0.0)
        assert np.all(np.abs(gaps - BASE.period) <= jit.period_dev + 1e-15)


class TestChaotic:
    def test_first_iterates(self):
        L = _logistic_intensities(ChaoticSpec(logistic_r=3.9, seed_intensity=0.5), 2)
        assert L[0] == pytest.approx(0.975)
        assert L[1] == pytest.approx(0.0950625)

    def test_zero_seed_silent(self):
        grid = TimeGrid(t_max=1.0, n_steps=1000)
        assert np.all(chaotic(BASE, ChaoticSpec(seed_intensity=0.0), grid) == 0.0)

    @given(
        r=st.floats(min_value=0.1, max_value=3.999),
        x0=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_iterates_stay_in_unit_interval(self, r, x0):
        L = _logistic_intensities(ChaoticSpec(logistic_r=r, seed_intensity=x0), 200)
        assert np.all(L > 0.0)
        assert np.all(L < 1.0)

    def test_pulse_heights_modulated(self):
        grid = TimeGrid(t_max=0.2, n_steps=2000)
        chaos = ChaoticSpec(logistic_r=3.9, seed_intensity=0.5)
        values = chaotic(BASE, chaos, grid)
        L = _logistic_intensities(chaos, 11)
        t = grid.midpoints
        for n in range(1, 6):
            mask = (t > n * BASE.period - BASE.duration) & (t <= n * BASE.period)
            assert mask.any()
            np.testing.assert_allclose(values[mask], BASE.height * L[n - 1])

    def test_is_regular_times_intensity_cell_by_cell(self):
        chaos = ChaoticSpec(logistic_r=3.9, seed_intensity=0.5)
        t = EDGE_GRID.midpoints
        # pulse n ends at n*period, so an on-cell at t belongs to pulse ceil(t/period)
        n = np.ceil(t / EDGE.period).astype(int)
        L = _logistic_intensities(chaos, n.max())
        np.testing.assert_array_equal(chaotic(EDGE, chaos, EDGE_GRID),
                                      regular(EDGE, EDGE_GRID) * L[n - 1])

    def test_deterministic(self):
        grid = TimeGrid(t_max=1.0, n_steps=1000)
        chaos = ChaoticSpec(logistic_r=3.9, seed_intensity=0.5)
        np.testing.assert_array_equal(chaotic(BASE, chaos, grid), chaotic(BASE, chaos, grid))


class TestShotNoise:
    def test_zero_rate_silent(self):
        grid = TimeGrid(t_max=1.0, n_steps=1000)
        signal = _sample_shot_noise(ShotNoiseSpec(strength=1.0, rate=0.0), substream(0, 0), grid)
        assert np.all(signal.values == 0.0)

    def test_same_seed_bitwise(self):
        grid = TimeGrid(t_max=1.0, n_steps=1000)
        spec = ShotNoiseSpec(strength=1.0, rate=2.0)
        a = _sample_shot_noise(spec, substream(4, 1), grid)
        b = _sample_shot_noise(spec, substream(4, 1), grid)
        np.testing.assert_array_equal(a.values, b.values)

    def test_time_average_matches_mean_drive(self):
        """E[c] = strength * rate, checked over 100 independent streams."""
        grid = TimeGrid(t_max=100.0, n_steps=10000)
        spec = ShotNoiseSpec(strength=1.0, rate=2.0)
        total, count = 0.0, 0
        for i in range(100):
            v = _sample_shot_noise(spec, substream(99, i), grid).values
            total += v.sum()
            count += v.size
        mean = total / count
        three_se = 3.0 * np.sqrt(spec.strength**2 * spec.rate / grid.dt / count)
        assert abs(mean - spec.strength * spec.rate) < three_se

    def test_unresolved_rate_warns(self):
        grid = TimeGrid(t_max=1.0, n_steps=10)
        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=1.0, rate=2.0))
        with pytest.warns(RuntimeWarning, match="not resolved"):
            family.check(grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sampling_an_unresolved_rate_is_silent(self):
        # the same rate * dt = 0.2 as above: only check() reports it
        grid = TimeGrid(t_max=1.0, n_steps=10)
        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=1.0, rate=2.0))
        family.sample(substream(0, 0), grid)

    def test_overflowing_height_raises_numeric_error(self):
        # strength / dt = 1e308 is finite, but two arrivals in a cell are not
        grid = TimeGrid(t_max=1.0, n_steps=100)
        spec = ShotNoiseSpec(strength=1e306, rate=1000.0)
        with pytest.raises(NumericOverflowError, match=r"signal\.strength = 1e\+306"):
            _sample_shot_noise(spec, substream(0, 0), grid)

    def test_poisson_limit_is_numpy_s(self):
        rng = np.random.default_rng(0)
        rng.poisson(_POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(_POISSON_LAM_MAX, np.inf))

    def test_values_quantised_by_strength(self):
        grid = TimeGrid(t_max=1.0, n_steps=1000)
        spec = ShotNoiseSpec(strength=0.3, rate=50.0)
        v = _sample_shot_noise(spec, substream(8, 0), grid).values
        counts = v * grid.dt / spec.strength
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)
        assert v.max() > 0.0


class TestFamilyAndFrequency:
    GRID = TimeGrid(t_max=1.0, n_steps=1000)

    def test_none_family_silent(self):
        signal = SignalFamily(kind="none").sample(substream(0, 0), self.GRID)
        assert np.all(signal.values == 0.0)

    def test_dispatch_matches_direct_calls(self):
        jit = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
        values = jittered(BASE, jit, substream(6, 2), self.GRID)
        # the drawn train put on the grid pulse by pulse, window by window
        t = self.GRID.midpoints
        expected = np.zeros_like(t)
        for end, duration, height in zip(*_draw_jittered_pulses(BASE, jit, substream(6, 2), 1.0)):
            expected[(t > end - duration) & (t <= end)] = height
        np.testing.assert_array_equal(values, expected)

    def test_effective_frequency_shifts_by_omega(self):
        signal = SignalFamily(kind="regular", pulse=BASE).sample(substream(0, 0), self.GRID)
        E = effective_frequency(signal, 1.0)
        assert E.max() == pytest.approx(1.0 + BASE.height)  # 21.0 on-pulse
        assert E.min() == pytest.approx(1.0)

    def test_substream_reproducible(self):
        a = np.random.default_rng(substream(12, 3)).uniform(size=8)
        b = np.random.default_rng(substream(12, 3)).uniform(size=8)
        c = np.random.default_rng(substream(12, 4)).uniform(size=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sampled_signal_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SampledSignal(self.GRID, np.zeros(7))
        with pytest.raises(ValueError, match="finite"):
            SampledSignal(self.GRID, np.full(self.GRID.n_steps, np.nan))


def assert_maximal_runs(signal, expected):
    """The signal's runs, as the kernel gets them, spell the cell values
    `expected` bit for bit, and are maximal: none empty, no two neighbours
    at equal levels.  Returns them."""
    levels, ids, lengths = signal._runs
    if lengths is None:  # an id per cell: the runs a kernel block forms, at omega = 0
        _, ids, lengths = _effective_runs([signal._runs], 0.0)
    run_levels = levels[ids]
    assert np.repeat(run_levels, lengths).tobytes() == np.asarray(expected, dtype=float).tobytes()
    assert lengths.sum() == signal.grid.n_steps
    assert np.all(lengths > 0)
    assert np.all(run_levels[1:] != run_levels[:-1])
    # level 0 is the gap, which every sample shares
    assert levels[0] == 0.0
    return levels, ids, lengths


def shot_reference(spec, seed, grid):
    """Shot noise as arrival counts times the height, cell by cell."""
    counts = np.random.default_rng(seed).poisson(spec.rate * grid.dt, size=grid.n_steps)
    return counts * (spec.strength / grid.dt)


# dt = 1e-3 on 1250 cells: a kernel's last chunk of 100 cells is half padding
PADDED = TimeGrid(t_max=1.25, n_steps=1250)
JITTER = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
RUN_FAMILIES = {
    "regular": SignalFamily("regular", pulse=EDGE),
    "jittered": SignalFamily("jittered", pulse=EDGE, jitter=JITTER),
    "chaotic": SignalFamily("chaotic", pulse=BASE, chaos=ChaoticSpec()),
    # area_dev > area: a third of the pulses are clamped to zero height
    "jittered-clamped": SignalFamily("jittered", pulse=PulseTrainSpec(0.02, 0.005, 0.1),
                                     jitter=JitterSpec(0.004, 0.004, 0.3)),
    "chaotic-silent": SignalFamily("chaotic", pulse=BASE, chaos=ChaoticSpec(seed_intensity=0.0)),
    "regular-zero-area": SignalFamily("regular", pulse=PulseTrainSpec(0.02, 0.01, 0.0)),
    "full-duty": SignalFamily("regular", pulse=PulseTrainSpec(0.02, 0.02, 0.2)),
    "jittered-full-duty": SignalFamily("jittered", pulse=PulseTrainSpec(0.02, 0.02, 0.2),
                                       jitter=JitterSpec(0.004, 0.0, 0.1)),
}


class TestRuns:
    @pytest.mark.parametrize("grid", [PADDED, TimeGrid(t_max=10.0, n_steps=10000)],
                             ids=["padded-last-chunk", "whole-chunks"])
    @pytest.mark.parametrize("name", sorted(RUN_FAMILIES))
    def test_pulse_runs_spell_the_midpoint_values(self, name, grid):
        family = RUN_FAMILIES[name]
        for seed in (0, 7, 1003):
            train = _pulse_train(family, substream(seed, 0), grid.t_max)
            assert_maximal_runs(family.sample(substream(seed, 0), grid), reference_sample(train, grid))

    def test_edge_trains_join_their_runs(self):
        grid = TimeGrid(t_max=10.0, n_steps=10000)
        for name, count in [("chaotic-silent", 1), ("regular-zero-area", 1), ("full-duty", 1)]:
            assert len(RUN_FAMILIES[name].sample(None, grid)._runs[1]) == count, name
        levels, ids, lengths = RUN_FAMILIES["jittered-clamped"].sample(substream(0, 0), grid)._runs
        # a clamped pulse joins the gaps around it into one run at level 0
        assert np.count_nonzero(levels == 0.0) > 1
        assert len(ids) < 2 * len(levels) - 1

    def test_overlapping_windows_keep_the_earlier_pulse(self):
        grid = TimeGrid(t_max=4.0, n_steps=4)
        train = (np.array([1.5, 2.5, 4.5]), np.array([1.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        signal = _sample_pulses(train, grid)
        assert_maximal_runs(signal, [0.0, 1.0, 2.0, 0.0])
        # pulse 3 is swallowed by the clip, yet keeps its level
        assert len(signal._runs[0]) == 4

    @settings(max_examples=200)
    @given(case=pulse_trains(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_drawn_train_has_maximal_runs(self, case, seed):
        family, grid = case
        train = _pulse_train(family, substream(seed, 0), grid.t_max)
        assert_maximal_runs(family.sample(substream(seed, 0), grid), reference_sample(train, grid))

    @pytest.mark.parametrize("grid", [PADDED, TimeGrid(t_max=10.0, n_steps=10000)],
                             ids=["padded-last-chunk", "whole-chunks"])
    @pytest.mark.parametrize("rate", [0.0, 100.0, 3000.0])
    def test_shot_runs_number_their_levels_by_count(self, grid, rate):
        spec = ShotNoiseSpec(strength=0.1, rate=rate)
        for seed in (0, 7, 1003):
            signal = _sample_shot_noise(spec, substream(seed, 0), grid)
            expected = shot_reference(spec, substream(seed, 0), grid)
            assert signal.values.tobytes() == expected.tobytes()
            assert_maximal_runs(signal, expected)
            # sampled per cell, by count: only a kernel block joins the runs
            levels, counts, lengths = signal._runs
            assert lengths is None and counts.max(initial=0) < len(levels)
            assert levels.tobytes() == (np.arange(len(levels)) * (spec.strength / grid.dt)).tobytes()

    def test_shot_counts_past_the_cell_count_make_runs_of_their_own(self):
        grid = TimeGrid(t_max=1.0, n_steps=10)
        spec = ShotNoiseSpec(strength=0.1, rate=1e4)  # about 1000 arrivals per cell
        signal = _sample_shot_noise(spec, substream(3, 0), grid)
        expected = shot_reference(spec, substream(3, 0), grid)
        assert_maximal_runs(signal, expected)
        assert np.array_equal(signal._runs[0], np.append(0.0, expected))

    def test_shot_runs_of_zero_strength_are_one_run(self):
        signal = _sample_shot_noise(ShotNoiseSpec(strength=0.0, rate=100.0), substream(0, 0), PADDED)
        assert len(assert_maximal_runs(signal, np.zeros(PADDED.n_steps))[1]) == 1

    def test_no_control_is_one_run(self):
        signal = SignalFamily(kind="none").sample(None, PADDED)
        assert_maximal_runs(signal, np.zeros(PADDED.n_steps))

    def test_cell_values_make_runs_of_their_own(self):
        values = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 1.0])
        signal = SampledSignal(TimeGrid(t_max=7.0, n_steps=7), values)
        assert_maximal_runs(signal, values)
        assert signal._runs[0].tolist() == [0.0] + values.tolist()
