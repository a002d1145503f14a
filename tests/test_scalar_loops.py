"""The scalar hot loops against their numpy-scalar originals, bit for bit.

The Riccati kernel, the Born j(u) recursion and the jittered pulse draw run
on Python floats/complex over lists (or on chunked numpy draws) for speed.
The references below are the loops as first written, on numpy scalars and
one size-3 draw per pulse; every output must equal them exactly, not to a
tolerance, because the arithmetic is the same operations in the same order.

The batched Riccati kernel runs those operations over (B,) rows.  At B = 1
it is the scalar loop bit for bit; at B > 1 numpy's vectorised complex
product may round differently, so each row is held to 1e-15 of its own
scalar kernel.
"""

import numpy as np
import pytest

from pulseguard.bath import BathSpec
from pulseguard.me2 import accumulated_phase, me2_fidelity
from pulseguard.numerics import NumericOverflowError, TimeGrid, running_trapezoid
from pulseguard.qsd import (
    DEFAULT_STATES,
    _KERNEL_BOUND,
    _cell_drive,
    _riccati_rows,
    solve_kernel_riccati,
)
from pulseguard.signals import (
    _MIN_DUTY,
    _rng,
    ChaoticSpec,
    JitterSpec,
    PulseTrainSpec,
    ShotNoiseSpec,
    SignalFamily,
    draw_jittered_pulses,
    effective_frequency,
    substream,
)

GRID = TimeGrid(t_max=10.0, n_steps=10000)
FIG1_BATH = BathSpec(coupling=1.0, cutoff=0.5)
FIG2_BATH = BathSpec(coupling=1.0, cutoff=0.3)
FIG2_PULSE = PulseTrainSpec(period=0.02, duration=0.005, area=0.2)
FIG2_JITTER = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
REGULAR = PulseTrainSpec(period=0.02, duration=0.01, area=0.2)
# drawn periods spread so widely that many trains outrun the first chunk of draws
WIDE_JITTER = JitterSpec(period_dev=0.0199, duration_dev=0.004, area_dev=0.18)


def reference_kernel(E, bath, grid):
    """solve_kernel_riccati's RK4 loop on numpy scalars."""
    dt = grid.dt
    drive = _cell_drive(E, grid)
    w = bath.weight
    cutoff = bath.cutoff
    values = np.empty(grid.n_steps + 1, dtype=complex)
    values[0] = 0.0
    f = 0.0 + 0.0j
    sixth = dt / 6.0
    half = 0.5 * dt
    for k in range(grid.n_steps):
        rate = drive[k] - cutoff
        k1 = w + (rate + f) * f
        y = f + half * k1
        k2 = w + (rate + y) * y
        y = f + half * k2
        k3 = w + (rate + y) * y
        y = f + dt * k3
        k4 = w + (rate + y) * y
        f = f + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(f) or abs(f) > _KERNEL_BOUND:
            raise NumericOverflowError(
                f"memory kernel diverged at t = {grid.times[k + 1]:.6g}"
            )
        values[k + 1] = f
    return values


def reference_born(states, E, bath, grid):
    """me2_fidelity with its j(u) recursion on numpy scalars."""
    dt = grid.dt
    phase = accumulated_phase(E, grid)
    decay = np.exp(-bath.cutoff * dt)
    emi = np.exp(-1j * phase)
    j = np.empty(grid.n_steps + 1, dtype=complex)
    j[0] = 0.0
    for k in range(grid.n_steps):
        j[k + 1] = decay * j[k] + 0.5 * dt * (decay * emi[k] + emi[k + 1])
    amp = np.array([p**2 for p in states])
    inner = (amp[:, None] * bath.weight) * np.exp(1j * phase) * j
    exponent = 2.0 * running_trapezoid(np.real(inner), dt)
    return np.mean(np.exp(-exponent), axis=0)


def reference_jittered(spec, jitter, seed, t_max):
    """draw_jittered_pulses with one size-3 draw per pulse."""
    rng = _rng(seed)
    ends = []
    durations = []
    heights = []
    dev_sum = 0.0
    n = 0
    while True:
        n += 1
        u = rng.uniform(-1.0, 1.0, size=3)
        period = spec.period + jitter.period_dev * u[0]
        if not period > 0.0:
            raise ValueError(
                "period_dev admits non-positive pulse periods; reduce it below the base period"
            )
        duration = spec.duration + jitter.duration_dev * u[1]
        area = spec.area + jitter.area_dev * u[2]
        dev_sum += jitter.period_dev * u[0]
        end = n * spec.period + dev_sum
        duration = min(max(duration, _MIN_DUTY * period), period)
        area = max(area, 0.0)
        ends.append(end)
        durations.append(duration)
        heights.append(area / duration)
        if end - duration > t_max:
            break
    return np.asarray(ends), np.asarray(durations), np.asarray(heights)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual.view(np.float64), expected.view(np.float64))


def splitting(family, seed=0, grid=GRID):
    return effective_frequency(family.sample(seed, grid), 1.0)


CONTROLS = {
    "free": SignalFamily("none"),
    "regular": SignalFamily("regular", pulse=REGULAR),
    "chaotic": SignalFamily("chaotic", pulse=REGULAR, chaos=ChaoticSpec()),
    "jittered": SignalFamily("jittered", pulse=FIG2_PULSE, jitter=FIG2_JITTER),
    "shot": SignalFamily("shot", shot=ShotNoiseSpec(strength=0.1, rate=100.0)),
}


class TestRiccatiKernel:
    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_bitwise_equal_to_numpy_scalar_loop(self, name):
        bath = FIG2_BATH if name == "jittered" else FIG1_BATH
        E = splitting(CONTROLS[name], substream(11, 3))
        kernel = solve_kernel_riccati(E, bath, GRID)
        assert_bitwise(kernel.values, reference_kernel(E, bath, GRID))

    def test_divergence_reported_at_the_same_time(self):
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        E = np.zeros(grid.n_steps)
        with pytest.raises(NumericOverflowError) as expected:
            reference_kernel(E, FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as actual:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert str(actual.value) == str(expected.value)

    def test_nan_splitting_fails_at_the_first_step(self):
        E = np.ones(GRID.n_steps)
        E[0] = np.nan
        with pytest.raises(NumericOverflowError, match=f"t = {GRID.dt:.6g}$"):
            solve_kernel_riccati(E, FIG1_BATH, GRID)


def drives(name, count):
    """Splittings of `count` trajectories of control `name`, stacked, and the bath."""
    bath = FIG2_BATH if name == "jittered" else FIG1_BATH
    return np.stack([splitting(CONTROLS[name], substream(11, k)) for k in range(count)]), bath


class TestBatchedKernel:
    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_one_row_is_the_scalar_loop_bit_for_bit(self, name):
        E, bath = drives(name, 1)
        assert_bitwise(_riccati_rows(E, bath, GRID),
                       solve_kernel_riccati(E[0], bath, GRID).values[np.newaxis])

    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_rows_match_their_scalar_kernels(self, name):
        E, bath = drives(name, 32)
        scalar = np.stack([solve_kernel_riccati(row, bath, GRID).values for row in E])
        for size in (2, 3, 8, 17, 32):
            batched = solve_kernel_riccati(E[:size], bath, GRID).values
            assert batched.shape == (size, GRID.n_steps + 1)
            assert np.max(np.abs(batched - scalar[:size])) <= 1e-15, size

    def test_a_batch_of_one_is_the_single_drive_bit_for_bit(self):
        E, bath = drives("shot", 1)
        assert_bitwise(solve_kernel_riccati(E, bath, GRID).values,
                       solve_kernel_riccati(E[0], bath, GRID).values[np.newaxis])

    def test_diverging_row_reported_with_the_scalar_time(self):
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        E = np.ones((5, grid.n_steps))
        E[[2, 4]] = 0.0  # omega = 0 without control diverges; omega = 1 does not
        with pytest.raises(NumericOverflowError) as expected:
            solve_kernel_riccati(E[2], FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as actual:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert actual.value.row == 2
        assert str(actual.value) == str(expected.value)


class TestBornRecursion:
    @pytest.mark.parametrize("name", ["free", "regular", "chaotic"])
    def test_bitwise_equal_to_numpy_scalar_loop(self, name):
        E = splitting(CONTROLS[name])
        curve = me2_fidelity(DEFAULT_STATES, E, FIG1_BATH, GRID)
        assert_bitwise(curve.values, reference_born(DEFAULT_STATES, E, FIG1_BATH, GRID))


class TestJitteredDraw:
    @pytest.mark.parametrize(
        "pulse, jitter",
        [
            (FIG2_PULSE, FIG2_JITTER),
            (FIG2_PULSE, JitterSpec()),
            (FIG2_PULSE, WIDE_JITTER),
        ],
        ids=["fig2", "zero-deviations", "multi-chunk"],
    )
    def test_bitwise_equal_to_per_pulse_draws(self, pulse, jitter):
        for seed in range(30):
            stream = substream(11, seed)
            actual = draw_jittered_pulses(pulse, jitter, stream, GRID.t_max)
            expected = reference_jittered(pulse, jitter, stream, GRID.t_max)
            for a, e in zip(actual, expected):
                assert_bitwise(a, e)

    def test_multi_chunk_case_outruns_one_chunk(self):
        counts = [len(draw_jittered_pulses(FIG2_PULSE, WIDE_JITTER, substream(11, seed),
                                           GRID.t_max)[0])
                  for seed in range(30)]
        assert max(counts) > int(GRID.t_max / FIG2_PULSE.period) + 2

    def test_non_positive_period_raises_exactly_when_the_loop_did(self):
        # periods reach -0.002, so some trains meet one before t_max and some do not
        jitter = JitterSpec(period_dev=0.022)
        outcomes = set()
        for seed in range(40):
            stream = substream(5, seed)
            try:
                expected = reference_jittered(FIG2_PULSE, jitter, stream, 0.2)
            except ValueError:
                with pytest.raises(ValueError, match="non-positive pulse periods"):
                    draw_jittered_pulses(FIG2_PULSE, jitter, stream, 0.2)
                outcomes.add("raised")
            else:
                for a, e in zip(draw_jittered_pulses(FIG2_PULSE, jitter, stream, 0.2), expected):
                    assert_bitwise(a, e)
                outcomes.add("drawn")
        assert outcomes == {"raised", "drawn"}
