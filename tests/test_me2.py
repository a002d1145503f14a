"""Second-order fidelity and the connected leakage kernel.

The factored closed form A(t, s) = |mu|^4 e^{i(Phi(t) - Phi(s))} is
re-derived here by brute force: interaction-picture sigma+- operators are
built as explicit 2x2 matrices from the free propagator
U0(t) = diag(e^{-i Phi/2}, e^{+i Phi/2}) and the connected correlator is
evaluated with plain linear algebra, then compared entry by entry.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pulseguard.bath import BathSpec
from pulseguard.me2 import accumulated_phase, me2_fidelity, me2_mean_fidelity
from pulseguard.me2_oracle import LeakageKernel, leakage_kernel
from pulseguard.numerics import TimeGrid, running_trapezoid
from pulseguard.qsd import (
    InitialState,
    default_state_grid,
    qsd_fidelity,
    solve_kernel_riccati,
)
from pulseguard.signals import (
    ChaoticSpec,
    PulseTrainSpec,
    SignalFamily,
    effective_frequency,
    substream,
)

PULSE = PulseTrainSpec(period=0.02, duration=0.01, area=0.2)
BATH = BathSpec(coupling=1.0, cutoff=0.5)

# basis order (|1>, |0>)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def connected_correlator(state, phase_t, phase_s):
    """<sig+(t) sig-(s)> - <sig+(t)><sig-(s)> from explicit matrices."""
    psi = np.array([state.excited_amp, state.ground_amp], dtype=complex)

    def heisenberg(op, phi):
        u = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
        return u.conj().T @ op @ u

    sp_t = heisenberg(SIGMA_PLUS, phase_t)
    sm_s = heisenberg(SIGMA_MINUS, phase_s)
    joint = psi.conj() @ (sp_t @ sm_s) @ psi
    split = (psi.conj() @ sp_t @ psi) * (psi.conj() @ sm_s @ psi)
    return joint - split


class TestAccumulatedPhase:
    GRID = TimeGrid(t_max=10.0, n_steps=10000)

    def test_zero_drive(self):
        phase = accumulated_phase(np.zeros(self.GRID.n_steps), self.GRID)
        assert np.all(phase == 0.0)

    def test_constant_drive_midpoints(self):
        phase = accumulated_phase(np.ones(self.GRID.n_steps), self.GRID)
        np.testing.assert_allclose(phase, self.GRID.times, atol=1e-9)

    def test_constant_drive_nodes(self):
        phase = accumulated_phase(np.ones(self.GRID.n_steps + 1), self.GRID)
        np.testing.assert_allclose(phase, self.GRID.times, atol=1e-9)

    def test_pulse_train_per_period_kick(self):
        """Each period adds omega*period + area to the phase."""
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, self.GRID)
        phase = accumulated_phase(effective_frequency(signal, 1.0), self.GRID)
        cells_per_period = 20
        for n in (1, 5, 250, 500):
            expected = n * (1.0 * PULSE.period + PULSE.area)
            assert phase[cells_per_period * n] == pytest.approx(expected, abs=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            accumulated_phase(np.ones(17), self.GRID)


class TestLeakageKernel:
    GRID = TimeGrid(t_max=1.0, n_steps=8)

    @given(
        phases=st.lists(
            st.floats(min_value=-20.0, max_value=20.0), min_size=9, max_size=9
        ),
        re_mu=st.floats(min_value=-1.0, max_value=1.0),
        im_mu=st.floats(min_value=-1.0, max_value=1.0),
        t_index=st.integers(min_value=0, max_value=8),
    )
    def test_matches_operator_algebra(self, phases, re_mu, im_mu, t_index):
        mu = complex(re_mu, im_mu)
        if abs(mu) > 1.0:
            mu /= abs(mu) * 1.0001
        nu = np.sqrt(1.0 - abs(mu) ** 2)
        state = InitialState(mu, nu)
        kernel = LeakageKernel(self.GRID, state.p_excited**2, np.asarray(phases))
        for s_index in range(t_index + 1):
            brute = connected_correlator(state, phases[t_index], phases[s_index])
            assert kernel.value(t_index, s_index) == pytest.approx(brute, abs=1e-12)

    def test_builder_uses_accumulated_phase(self):
        grid = TimeGrid(t_max=2.0, n_steps=200)
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, grid)
        E = effective_frequency(signal, 1.0)
        state = InitialState.from_excited_prob(0.7)
        kernel = leakage_kernel(state, E, grid)
        assert kernel.amplitude == pytest.approx(0.49)
        np.testing.assert_array_equal(kernel.phase, accumulated_phase(E, grid))

    def test_equal_time_value_is_amplitude(self):
        kernel = LeakageKernel(self.GRID, 0.25, np.linspace(0.0, 3.0, 9))
        for i in range(9):
            assert kernel.value(i, i) == pytest.approx(0.25)

    def test_ground_state_silent(self):
        kernel = leakage_kernel(
            InitialState.from_excited_prob(0.0), np.ones(8), self.GRID
        )
        assert kernel.amplitude == 0.0
        assert np.all(kernel.triangle() == 0.0)

    def test_modulus_phase_independent(self):
        a = LeakageKernel(self.GRID, 0.25, np.linspace(0.0, 3.0, 9))
        b = LeakageKernel(self.GRID, 0.25, np.linspace(0.0, -7.0, 9))
        for i in range(9):
            np.testing.assert_allclose(np.abs(a.row(i)), np.abs(b.row(i)), rtol=1e-14)

    def test_row_and_triangle_consistent(self):
        kernel = LeakageKernel(self.GRID, 0.5, np.linspace(0.0, 2.0, 9))
        tri = kernel.triangle()
        for i in range(9):
            np.testing.assert_allclose(tri[i, : i + 1], kernel.row(i), atol=1e-15)
        assert np.all(tri[np.triu_indices(9, k=1)] == 0.0)

    def test_future_argument_rejected(self):
        kernel = LeakageKernel(self.GRID, 0.5, np.linspace(0.0, 2.0, 9))
        with pytest.raises(ValueError, match="s <= t"):
            kernel.value(2, 5)


class TestMe2Fidelity:
    GRID = TimeGrid(t_max=10.0, n_steps=10000)

    def free_splitting(self, grid):
        return effective_frequency(SignalFamily(kind="none").sample(0, grid), 1.0)

    def test_zero_coupling_flat(self):
        bath = BathSpec(coupling=0.0, cutoff=0.5)
        curve = me2_fidelity(
            InitialState.from_excited_prob(0.5), self.free_splitting(self.GRID), bath, self.GRID
        )
        assert np.all(curve.values == 1.0)

    def test_ground_state_flat(self):
        curve = me2_fidelity(
            InitialState.from_excited_prob(0.0), self.free_splitting(self.GRID), BATH, self.GRID
        )
        assert np.all(curve.values == 1.0)

    def test_positive_everywhere(self):
        bath = BathSpec(coupling=30.0, cutoff=0.5)
        curve = me2_fidelity(
            InitialState.from_excited_prob(0.9), self.free_splitting(self.GRID), bath, self.GRID
        )
        assert np.all(curve.values > 0.0)

    def test_matches_direct_double_integral(self):
        """The O(n) recursion equals the written-out double quadrature."""
        grid = TimeGrid(t_max=2.0, n_steps=400)
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, grid)
        E = effective_frequency(signal, 1.0)
        state = InitialState.from_excited_prob(0.5)
        fast = me2_fidelity(state, E, BATH, grid)

        kernel = leakage_kernel(state, E, grid)
        t = grid.times
        dt = grid.dt
        inner = np.zeros(grid.n_steps + 1, dtype=complex)
        for i in range(1, grid.n_steps + 1):
            integrand = (
                BATH.weight * np.exp(-BATH.cutoff * (t[i] - t[: i + 1])) * kernel.row(i)
            )
            inner[i] = dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[i]))
        reference = np.exp(-2.0 * running_trapezoid(inner.real, dt))
        np.testing.assert_allclose(fast.values, reference, rtol=0, atol=1e-12)

    def test_weak_coupling_matches_exact(self):
        """Born error is O(coupling^2), negligible at coupling = 0.01."""
        bath = BathSpec(coupling=0.01, cutoff=0.5)
        E = self.free_splitting(self.GRID)
        state = InitialState.from_excited_prob(0.5)
        born = me2_fidelity(state, E, bath, self.GRID)
        exact = qsd_fidelity(state, solve_kernel_riccati(E, bath, self.GRID))
        assert np.max(np.abs(born.values - exact.values)) < 1e-3

    def test_tracks_exact_under_control(self):
        signal = SignalFamily(kind="regular", pulse=PULSE).sample(0, self.GRID)
        E = effective_frequency(signal, 1.0)
        state = InitialState.from_excited_prob(0.5)
        born = me2_fidelity(state, E, BATH, self.GRID)
        exact = qsd_fidelity(state, solve_kernel_riccati(E, BATH, self.GRID))
        assert np.max(np.abs(born.values - exact.values)) < 0.02


def born_per_state(state, E, bath, grid):
    """One state's Born curve with its own recursion: the loop the state average replaces."""
    dt = grid.dt
    phase = accumulated_phase(E, grid)
    decay = np.exp(-bath.cutoff * dt)
    emi = np.exp(-1j * phase)
    j = np.zeros(grid.n_steps + 1, dtype=complex)
    for k in range(grid.n_steps):
        j[k + 1] = decay * j[k] + 0.5 * dt * (decay * emi[k] + emi[k + 1])
    inner = state.p_excited**2 * bath.weight * np.exp(1j * phase) * j
    return np.exp(-2.0 * running_trapezoid(np.real(inner), dt))


class TestStateAverage:
    GRID = TimeGrid(t_max=10.0, n_steps=10000)

    @pytest.mark.parametrize(
        "family",
        [
            SignalFamily(kind="none"),
            SignalFamily(kind="chaotic", pulse=PULSE, chaos=ChaoticSpec()),
        ],
        ids=["free", "chaotic"],
    )
    def test_equals_per_state_loop(self, family):
        """One shared recursion gives every state's curve and their mean."""
        states = default_state_grid()
        E = effective_frequency(family.sample(substream(7, 0), self.GRID), 1.0)
        curves = [born_per_state(state, E, BATH, self.GRID) for state in states]
        for state, curve in zip(states, curves):
            np.testing.assert_array_equal(me2_fidelity(state, E, BATH, self.GRID).values, curve)
        averaged = me2_mean_fidelity(states, E, BATH, self.GRID).values
        np.testing.assert_allclose(averaged, np.mean(curves, axis=0), rtol=0, atol=1e-15)
