"""Exact memory-kernel dynamics and the closed-form fidelity.

Independent oracle: for a constant shifted splitting E the Riccati equation
linearises through F = -v'/v with v'' - a v' + w v = 0, a = iE - cutoff,
w = coupling*cutoff/2, giving

    F(t) = w (e^{l+ t} - e^{l- t}) / (l+ e^{l- t} - l- e^{l+ t}),

with l+- the roots of l^2 - a l + w = 0.  Every constant-drive test below
compares the solvers against this closed form rather than against each
other.
"""

import dataclasses
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pulseguard.bath import BathSpec
from pulseguard.ensemble import _BLOCK, ensemble_mean
from pulseguard.numerics import NumericOverflowError, TimeGrid, running_trapezoid
from pulseguard.qsd import (
    DEFAULT_STATES,
    FidelityCurve,
    KernelCurve,
    qsd_fidelity,
    solve_kernel_quadrature,
    solve_kernel_riccati,
)
from pulseguard.runner import ConfigError, ExperimentConfig, _block, load_config
from pulseguard.signals import (
    ChaoticSpec,
    JitterSpec,
    PulseTrainSpec,
    ShotNoiseSpec,
    SignalFamily,
    effective_frequency,
    substream,
)

ROOT = Path(__file__).resolve().parents[1]
BATH = BathSpec(coupling=1.0, cutoff=0.5)
GRID = TimeGrid(t_max=10.0, n_steps=10000)
PULSE = PulseTrainSpec(period=0.02, duration=0.01, area=0.2)


def constant_drive_kernel(E, bath, t):
    """Closed-form F(t) for time-independent E; see module docstring."""
    a = 1j * E - bath.cutoff
    w = bath.weight
    disc = np.sqrt(a * a - 4.0 * w + 0j)
    l_plus = 0.5 * (a + disc)
    l_minus = 0.5 * (a - disc)
    num = np.exp(l_plus * t) - np.exp(l_minus * t)
    den = l_plus * np.exp(l_minus * t) - l_minus * np.exp(l_plus * t)
    return w * num / den


def free_splitting(grid, omega=1.0):
    signal = SignalFamily(kind="none").sample(0, grid)
    return effective_frequency(signal, omega)


class TestInitialState:
    """An initial state mu|1> + nu|0> is its excited probability p = |mu|^2."""

    def test_prob_bounds(self):
        """A memory config built without from_dict is checked too, and so is a replace."""
        for kind in ("memory-qsd", "memory-me2", "memory-ensemble"):
            memory = partial(ExperimentConfig, kind=kind, grid=GRID,
                             signal=SignalFamily(kind="none"), bath=BATH)
            for states in ((0.5, 1.2), (-0.1,), (float("nan"),)):
                with pytest.raises(ConfigError,
                                   match=r"^states\[\d\] must be an excited probability"):
                    memory(states=states)
            config = memory(states=[0.0, 1.0])
            assert config.states == (0.0, 1.0)
            with pytest.raises(ConfigError, match=r"^states\[0\] must be an excited probability"):
                dataclasses.replace(config, states=(1.5,))

    # each states list outside the rule and the message that names it
    BAD_STATES = [
        ([], "states must be non-empty"),
        ([1.5], "states[0] must be an excited probability in [0, 1], got 1.5"),
        ([0.5, -0.1], "states[1] must be an excited probability in [0, 1], got -0.1"),
        ([float("nan")], "states[0] must be an excited probability in [0, 1], got nan"),
    ]

    @pytest.mark.parametrize("states, message", BAD_STATES)
    def test_fidelity_checks_its_states(self, states, message):
        """The public solver applies the config's rule; an empty list once
        warned "Mean of empty slice", and p = 1.5 gave a fidelity."""
        kernel = solve_kernel_riccati(free_splitting(GRID), BATH, GRID)
        with pytest.raises(ValueError) as raised:
            qsd_fidelity(states, kernel)
        assert str(raised.value) == message

    @pytest.mark.parametrize("states, message", BAD_STATES)
    def test_config_messages_for_states(self, states, message):
        with pytest.raises(ConfigError) as raised:
            ExperimentConfig(kind="memory-qsd", grid=GRID, signal=SignalFamily(kind="none"),
                             bath=BATH, states=states)
        assert str(raised.value) == message

    def test_default_grid(self):
        assert DEFAULT_STATES == tuple(np.arange(1, 10) / 10.0)
        assert all(type(p) is float for p in DEFAULT_STATES)


class TestKernelSolvers:
    def test_riccati_against_closed_form(self):
        for coupling, cutoff, omega in [(1.0, 0.5, 1.0), (2.0, 3.0, 0.7), (1.0, 0.3, 1.0)]:
            bath = BathSpec(coupling=coupling, cutoff=cutoff)
            kernel = solve_kernel_riccati(free_splitting(GRID, omega), bath, GRID)
            exact = constant_drive_kernel(omega, bath, GRID.times)
            assert np.max(np.abs(kernel.values - exact)) < 1e-12

    def test_critically_damped_closed_form(self):
        """E = 0 with w = cutoff^2/4 puts delta = sqrt(r^2/4 - w) at exactly 0,
        where z'' + cutoff z' + w z = 0 has the double root -cutoff/2 and
        z = e^{-t/4} (1 + t/4), so F = -z'/z = t / (16 + 4 t)."""
        bath = BathSpec(coupling=0.25, cutoff=0.5)
        assert 0.25 * bath.cutoff**2 == bath.weight
        kernel = solve_kernel_riccati(free_splitting(GRID, omega=0.0), bath, GRID)
        t = GRID.times
        assert np.max(np.abs(kernel.values - t / (16.0 + 4.0 * t))) < 1e-13

    def test_cells_far_longer_than_the_memory_time(self):
        """cutoff * dt = 100: each cell's map is exact however stiff, and its
        rescaling keeps the chunk products finite."""
        bath = BathSpec(coupling=1.0, cutoff=1.0e5)
        grid = TimeGrid(t_max=1.0, n_steps=1000)
        kernel = solve_kernel_riccati(free_splitting(grid), bath, grid)
        exact = constant_drive_kernel(1.0, bath, grid.times)
        assert np.max(np.abs(kernel.values - exact)) < 1e-12

    def test_quadrature_against_closed_form(self):
        kernel = solve_kernel_quadrature(free_splitting(GRID), BATH, GRID)
        exact = constant_drive_kernel(1.0, BATH, GRID.times)
        assert np.max(np.abs(kernel.values - exact)) < 1e-6

    def test_starts_at_zero(self):
        kernel = solve_kernel_riccati(free_splitting(GRID), BATH, GRID)
        assert kernel.values[0] == 0.0

    def test_short_time_linear_growth(self):
        """F ~ (coupling*cutoff/2) t while the quadratic terms are negligible."""
        grid = TimeGrid(t_max=0.01, n_steps=100)
        kernel = solve_kernel_riccati(free_splitting(grid), BATH, grid)
        expected = BATH.weight * grid.times[1:]
        assert np.max(np.abs(kernel.values[1:] / expected - 1.0)) < 0.01

    def test_markov_fixed_point(self):
        """Large cutoff at fixed coupling: Re F settles at coupling/2."""
        grid = TimeGrid(t_max=5.0, n_steps=50000)
        bath = BathSpec(coupling=1.0, cutoff=200.0)
        kernel = solve_kernel_riccati(free_splitting(grid), bath, grid)
        assert abs(kernel.values[-1].real - 0.5) < 0.01

    def test_zero_coupling_silent(self):
        bath = BathSpec(coupling=0.0, cutoff=0.5)
        grid = TimeGrid(t_max=2.0, n_steps=500)
        for solver in (solve_kernel_riccati, solve_kernel_quadrature):
            kernel = solver(free_splitting(grid), bath, grid)
            assert np.all(kernel.values == 0.0)

    def test_wrong_splitting_length_rejected(self):
        with pytest.raises(ValueError, match="midpoint"):
            solve_kernel_riccati(np.ones(GRID.n_steps + 1), BATH, GRID)

    def test_degenerate_qubit_diverges(self):
        """At zero splitting the kernel has a pole at finite time."""
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        with pytest.raises(NumericOverflowError, match="diverged at t"):
            solve_kernel_riccati(free_splitting(grid, omega=0.0), BATH, grid)

    def test_kernel_curve_validation(self):
        with pytest.raises(ValueError, match="F\\(0\\)"):
            KernelCurve(TimeGrid(1.0, 2), np.array([0.1, 0.0, 0.0]))
        with pytest.raises(ValueError, match="shape"):
            KernelCurve(TimeGrid(1.0, 2), np.zeros(5))


class TestFidelity:
    def test_starts_at_one_for_every_state(self):
        kernel = solve_kernel_riccati(free_splitting(GRID), BATH, GRID)
        for p in np.linspace(0.0, 1.0, 11):
            curve = qsd_fidelity((p,), kernel)
            assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_immune(self):
        kernel = solve_kernel_riccati(free_splitting(GRID), BATH, GRID)
        curve = qsd_fidelity((0.0,), kernel)
        assert np.all(curve.values == 1.0)

    def test_markov_closed_form(self):
        """p = 1/2 kills the population term; decay is exp(-coupling t / 2)."""
        grid = TimeGrid(t_max=10.0, n_steps=50000)
        bath = BathSpec(coupling=1.0, cutoff=200.0)
        kernel = solve_kernel_riccati(free_splitting(grid), bath, grid)
        curve = qsd_fidelity((0.5,), kernel)
        reference = 0.5 + 0.5 * np.exp(-0.5 * grid.times)
        assert np.max(np.abs(curve.values - reference)) < 0.01

    def test_balanced_state_identity(self):
        """At p = 1/2 only the coherence term survives alongside 1/2."""
        kernel = solve_kernel_riccati(free_splitting(GRID), BATH, GRID)
        curve = qsd_fidelity((0.5,), kernel)
        integral = running_trapezoid(kernel.values, GRID.dt)
        # p - 2 p^2 is exactly zero at p = 1/2, so the population term drops out
        coherence = np.exp(-integral.real) * np.cos(integral.imag)
        np.testing.assert_array_equal(curve.values, 0.5 + 0.5 * coherence)

    def test_bounded_on_standard_parameters(self):
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, GRID)
        kernel = solve_kernel_riccati(effective_frequency(signal, 1.0), BATH, GRID)
        for p in (0.2, 0.5, 0.9):
            curve = qsd_fidelity((p,), kernel)
            assert curve.values.min() >= -1e-12
            assert curve.values.max() <= 1.0 + 1e-12

    def test_negative_running_integral_warns(self):
        values = np.full(101, -0.1 + 0.0j)
        values[0] = 0.0
        kernel = KernelCurve(TimeGrid(1.0, 100), values)
        with pytest.warns(RuntimeWarning, match="dipped below zero"):
            qsd_fidelity((0.5,), kernel)

    def test_free_decay_fixture(self):
        """Frozen uncontrolled baseline used by the protection-gap check."""
        kernel = solve_kernel_riccati(free_splitting(GRID), BATH, GRID)
        curve = qsd_fidelity((0.5,), kernel)
        assert curve.values[-1] == pytest.approx(0.455385272224, abs=1e-9)

    def test_duty_ratio_near_insensitive(self):
        """Same pulse area at duty 1/4, 1/2, 3/4 protects almost equally.

        The spread is tiny but systematic: the shorter (more impulsive)
        pulse shape does marginally better at fixed area.
        """
        finals = []
        for duty in (0.25, 0.5, 0.75):
            pulse = PulseTrainSpec(period=0.02, duration=duty * 0.02, area=0.2)
            signal = SignalFamily(kind="regular", pulse=pulse).sample(0, GRID)
            kernel = solve_kernel_riccati(effective_frequency(signal, 1.0), BATH, GRID)
            finals.append(qsd_fidelity((0.5,), kernel).values[-1])
        assert max(finals) - min(finals) < 1e-3
        assert finals[0] > finals[1] > finals[2]
        assert min(finals) > 0.98

    def test_one_state_is_the_written_out_formula(self):
        """qsd_fidelity keeps the module docstring's evaluation order, bit for bit."""
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, GRID)
        kernel = solve_kernel_riccati(effective_frequency(signal, 1.0), BATH, GRID)
        integral = running_trapezoid(kernel.values, GRID.dt)
        for p in DEFAULT_STATES:
            reference = (
                1.0
                - p
                - (p - 2.0 * p * p) * np.exp(-2.0 * integral.real)
                + 2.0 * (p - p * p) * (np.exp(-integral.real) * np.cos(integral.imag))
            )
            np.testing.assert_array_equal(qsd_fidelity((p,), kernel).values, reference)

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3"])
    def test_coherence_is_re_exp_within_2_ulp(self, preset):
        """e^{-Re INT} cos(Im INT) is the complex exponential's real part to 2 ulp."""
        config = load_config(ROOT / "configs" / f"{preset}.json")
        drives = [effective_frequency(config.signal.sample(substream(config.master_seed, k),
                                                           config.grid), config.omega)
                  for k in range(4)]
        kernels = solve_kernel_riccati(np.array(drives), config.bath, config.grid).values
        integral = running_trapezoid(kernels, config.grid.dt)
        complex_form = np.real(np.exp(-integral))
        coherence = np.exp(-integral.real) * np.cos(integral.imag)
        assert np.all(np.abs(coherence - complex_form) <= 2.0 * np.spacing(np.abs(complex_form)))

    @pytest.mark.parametrize(
        "family",
        [
            SignalFamily(kind="none"),
            SignalFamily(kind="chaotic", pulse=PULSE, chaos=ChaoticSpec()),
        ],
        ids=["free", "chaotic"],
    )
    def test_state_average_equals_per_state_loop(self, family):
        """Averaging the three coefficients first changes only rounding."""
        signal = family.sample(substream(7, 0), GRID)
        kernel = solve_kernel_riccati(effective_frequency(signal, 1.0), BATH, GRID)
        loop = np.mean([qsd_fidelity((p,), kernel).values for p in DEFAULT_STATES], axis=0)
        averaged = qsd_fidelity(DEFAULT_STATES, kernel).values
        np.testing.assert_allclose(averaged, loop, rtol=0, atol=1e-15)

    def test_fidelity_curve_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="start at 1"):
            FidelityCurve(grid, np.array([0.9, 0.9, 0.9, 0.9, 0.9]))


class TestEnsemble:
    GRID = TimeGrid(t_max=2.0, n_steps=2000)
    STATES = (0.3, 0.7)

    def block(self, family, master_seed, grid=None, states=None, omega=1.0):
        config = ExperimentConfig(
            kind="memory-ensemble", grid=self.GRID if grid is None else grid, signal=family,
            bath=BATH, omega=omega, states=self.STATES if states is None else states,
            master_seed=master_seed,
        )
        return partial(_block, config)

    def test_degenerate_jitter_matches_single_curve(self):
        """Zero-width jitter: every trajectory equals the regular train."""
        family = SignalFamily(kind="jittered", pulse=PULSE, jitter=JitterSpec())
        mean, stderr = ensemble_mean(self.block(family, 5), 3)
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, self.GRID)
        kernel = solve_kernel_riccati(effective_frequency(signal, 1.0), BATH, self.GRID)
        reference = 0.5 * (
            qsd_fidelity(self.STATES[:1], kernel).values
            + qsd_fidelity(self.STATES[1:], kernel).values
        )
        # averaging three identical rows reproduces them to the ulp
        np.testing.assert_allclose(mean[0], reference, rtol=0, atol=1e-15)
        np.testing.assert_allclose(stderr[0], 0.0, atol=1e-15)

    def test_same_seed_bitwise(self):
        family = SignalFamily(
            kind="jittered", pulse=PULSE, jitter=JitterSpec(period_dev=0.004)
        )
        a_mean, a_stderr = ensemble_mean(self.block(family, 21), 8)
        b_mean, b_stderr = ensemble_mean(self.block(family, 21), 8)
        np.testing.assert_array_equal(a_mean, b_mean)
        np.testing.assert_array_equal(a_stderr, b_stderr)

    def test_threaded_map_identical(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        family = SignalFamily(
            kind="jittered", pulse=PULSE, jitter=JitterSpec(area_dev=0.1)
        )
        serial_mean, serial_stderr = ensemble_mean(self.block(family, 3), 70)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        threaded_mean, threaded_stderr = ensemble_mean(
            self.block(family, 3), 70, workers=4
        )
        np.testing.assert_array_equal(serial_mean, threaded_mean)
        np.testing.assert_array_equal(serial_stderr, threaded_stderr)

    def test_stderr_scale(self):
        family = SignalFamily(
            kind="jittered", pulse=PULSE, jitter=JitterSpec(area_dev=0.18)
        )
        _, stderr = ensemble_mean(self.block(family, 2), 16)
        assert stderr[0, 0] == 0.0
        assert np.all(stderr >= 0.0)
        assert stderr.max() < 0.05

    def test_validation(self):
        family = SignalFamily(kind="none")
        with pytest.raises(ValueError, match="n_traj"):
            ensemble_mean(self.block(family, 0), 0)
        with pytest.raises(ValueError, match="states"):
            self.block(family, 0, states=())

    def test_overflow_names_trajectory(self):
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        family = SignalFamily(kind="none")
        with pytest.raises(NumericOverflowError, match="trajectory 0"):
            ensemble_mean(self.block(family, 0, grid=grid, omega=0.0), 1)

    def test_overflow_names_the_first_diverging_trajectory(self):
        grid = TimeGrid(t_max=20.0, n_steps=4000)

        def diverging(ks):
            # omega = 0 without control diverges, omega = 1 does not
            drives = [np.full(grid.n_steps, 0.0 if k in (37, 40) else 1.0) for k in ks]
            return solve_kernel_riccati(np.stack(drives), BATH, grid).values[:, np.newaxis]

        with pytest.raises(NumericOverflowError) as scalar:
            solve_kernel_riccati(np.zeros(grid.n_steps), BATH, grid)
        with pytest.raises(NumericOverflowError) as batched:
            ensemble_mean(diverging, _BLOCK + 13)
        assert str(batched.value) == f"trajectory 37: {scalar.value}"

    def test_sampling_overflow_names_its_trajectory_in_the_block(self):
        # two arrivals in one cell overflow strength / dt = 1e308; only some
        # trajectories draw them, and trajectory 0 does not
        grid = TimeGrid(t_max=1.0, n_steps=100)
        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=1e306, rate=10.0))
        overflowing = []
        for k in range(_BLOCK):
            try:
                family.sample(substream(0, k), grid)
            except NumericOverflowError:
                overflowing.append(k)
        assert overflowing and overflowing[0] > 0
        with pytest.raises(NumericOverflowError, match=r"signal\.strength") as exc:
            ensemble_mean(self.block(family, 0, grid=grid), _BLOCK)
        assert str(exc.value).startswith(f"trajectory {overflowing[0]}: ")

    def test_blocks_are_fixed_whatever_the_map(self, monkeypatch):
        """The block decomposition, the units of work, is pinned here."""
        from concurrent.futures import ThreadPoolExecutor

        def recorder(blocks):
            def block(ks):
                blocks.append(ks)
                return np.zeros((len(ks), 1, 2))

            return block

        expected = [range(0, 32), range(32, 64), range(64, 67)]
        serial = []
        ensemble_mean(recorder(serial), 67)
        threaded = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        ensemble_mean(recorder(threaded), 67, workers=3)
        assert serial == expected
        assert sorted(threaded, key=lambda ks: ks.start) == expected

    @staticmethod
    def rows(ks):
        """Fixed rows per trajectory k: one row near 0.5, one at 1e6 plus
        small noise, where a sum-of-squares shortcut would cancel."""
        noise = np.stack([np.random.default_rng(k).standard_normal((2, 5)) for k in ks])
        return np.array([0.5, 1e6])[:, None] + np.array([0.1, 1e-3])[:, None] * noise

    def test_one_block_is_numpys_mean_and_std_bit_for_bit(self):
        rows = self.rows(range(_BLOCK))
        mean, stderr = ensemble_mean(self.rows, _BLOCK)
        np.testing.assert_array_equal(mean, rows.mean(axis=0))
        np.testing.assert_array_equal(stderr, rows.std(axis=0, ddof=1) / np.sqrt(_BLOCK))

    def test_blocks_merge_to_the_two_pass_formula(self):
        # blocks of 32, 32 and 3
        rows = self.rows(range(67))
        mean, stderr = ensemble_mean(self.rows, 67)
        np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=1e-14, atol=0)
        scale = np.abs(rows).max(axis=0)
        two_pass = rows.std(axis=0, ddof=1) / np.sqrt(67)
        assert np.all(np.abs(stderr - two_pass) <= 1e-15 * scale)

    def test_a_block_ships_its_sums_not_its_rows(self, monkeypatch):
        shipped = []

        class InlinePool:
            def __init__(self, max_workers, **kwargs):
                pass

            def shutdown(self, wait=True):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                shipped.append(future.result())
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        ensemble_mean(self.rows, 67, workers=2)
        assert len(shipped) == 3
        for (sums, squares), caught in shipped:
            assert sums.shape == squares.shape == (2, 5)
            assert caught == []
