"""Finite-time two-level sweep: eigenframe, phases, and the one-amplitude
reduction.

Cross-validation levels: the analytic geometric couplings against centered
finite differences of the gauge-fixed eigenvectors; the Volterra solution
and its adiabaticity defect against an RK4 integration of the two-component
frame equation; and the final state against a direct diagonalisation of the
end-point Hamiltonian.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from pulseguard.adiabatic import (
    Psi0Curve,
    SweepSpec,
    _kernel_factors,
    dynamical_phases,
    solve_psi0,
    tdse_components,
    tdse_oracle,
)
from pulseguard.ensemble import ensemble_mean
from pulseguard.numerics import TimeGrid, volterra_solve
from pulseguard.runner import ExperimentConfig, _block
from pulseguard.signals import SampledSignal, ShotNoiseSpec, SignalFamily, substream
from pulseguard.sweep_oracle import (
    build_eigen_frame,
    eigensystem,
    finite_difference_couplings,
    geometric_couplings,
)

# numpy before 2.0, the floor pyproject admits, names it trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz

OMEGA = 0.3
FAST = SweepSpec(passage_time=5.0, base_freq=OMEGA)
SLOW = SweepSpec(passage_time=50.0, base_freq=OMEGA)
GRID_FAST = TimeGrid(t_max=5.0, n_steps=2500)
GRID_SLOW = TimeGrid(t_max=50.0, n_steps=5000)


def sweep_block(family, master_seed, grid):
    """The ensemble block of the fast sweep under `family`."""
    config = ExperimentConfig(kind="adiabatic", grid=grid, signal=family, sweep=FAST,
                              master_seed=master_seed)
    return partial(_block, config)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(passage_time=0.0)
        with pytest.raises(ValueError):
            SweepSpec(passage_time=1.0, base_freq=-1.0)

    def test_mixing_angle_quarter_turn(self):
        sweep = SweepSpec(passage_time=4.0)
        assert sweep.mixing_angle(0.0) == pytest.approx(0.0)
        assert sweep.mixing_angle(2.0) == pytest.approx(np.pi / 4.0)
        assert sweep.mixing_angle(4.0) == pytest.approx(np.pi / 2.0)

    def test_angle_velocity_profile(self):
        sweep = SweepSpec(passage_time=4.0)
        assert sweep.angle_velocity(0.0) == pytest.approx(0.25)  # 1/T at the ends
        assert sweep.angle_velocity(4.0) == pytest.approx(0.25)
        assert sweep.angle_velocity(2.0) == pytest.approx(0.5)  # 2/T at mid-sweep

    def test_radial_profile(self):
        sweep = SweepSpec(passage_time=4.0)
        assert sweep.radial(0.0) == pytest.approx(1.0)
        assert sweep.radial(2.0) == pytest.approx(1.0 / np.sqrt(2.0))
        assert sweep.radial(4.0) == pytest.approx(1.0)


class TestEigensystem:
    def test_start_point(self):
        energies, vectors = eigensystem(0.0, FAST)
        np.testing.assert_allclose(energies, [-OMEGA, OMEGA], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_midpoint_gap(self):
        energies, _ = eigensystem(2.5, FAST)
        assert energies[1] - energies[0] == pytest.approx(np.sqrt(2.0) * OMEGA)

    def test_scalar_control_scales_energies_not_vectors(self):
        e0, v0 = eigensystem(1.0, FAST, control=None)
        e5, v5 = eigensystem(1.0, FAST, control=5.0)
        np.testing.assert_allclose(v5, v0, atol=1e-12)
        np.testing.assert_allclose(e5, e0 * (OMEGA + 5.0) / OMEGA, rtol=1e-12)

    def test_control_clamped_above_gap_closure(self):
        # c = -0.29 would flip the sign at base_freq 0.3; the clamp holds
        # kappa at 0.1 * base_freq instead
        energies, _ = eigensystem(0.0, FAST, control=-0.29)
        assert energies[0] == pytest.approx(-0.1 * OMEGA)

    def test_sampled_signal_control(self):
        values = np.zeros(GRID_FAST.n_steps)
        values[0] = 2.0
        control = SampledSignal(GRID_FAST, values)
        e_first, _ = eigensystem(0.0005, FAST, control=control)
        assert e_first[0] == pytest.approx(-(OMEGA + 2.0) * FAST.radial(0.0005))


class TestEigenFrame:
    FRAME = build_eigen_frame(FAST, None, GRID_FAST)

    def test_orthonormal_everywhere(self):
        v = self.FRAME.vectors
        gram = np.einsum("kim,kin->kmn", v, v)
        eye = np.broadcast_to(np.eye(2), gram.shape)
        assert np.max(np.abs(gram - eye)) < 1e-12

    def test_energies_match_radial_form(self):
        kappa_r = OMEGA * FAST.radial(GRID_FAST.times)
        np.testing.assert_allclose(self.FRAME.energies[:, 0], -kappa_r, atol=1e-12)
        np.testing.assert_allclose(self.FRAME.energies[:, 1], kappa_r, atol=1e-12)

    def test_gap_signed_and_bounded(self):
        assert np.all(self.FRAME.gap < 0.0)
        assert np.min(np.abs(self.FRAME.gap)) >= np.sqrt(2.0) * OMEGA - 1e-12

    def test_gauge_continuity(self):
        v = self.FRAME.vectors
        overlaps = np.einsum("kin,kin->kn", v[:-1], v[1:])
        assert np.all(overlaps > 0.0)

    def test_couplings_match_finite_differences(self):
        fd = finite_difference_couplings(self.FRAME)
        analytic = geometric_couplings(self.FRAME)
        assert np.max(np.abs(fd - analytic)) < 1e-6

    def test_couplings_antisymmetric(self):
        g = geometric_couplings(self.FRAME)
        np.testing.assert_array_equal(g[:, 0, 0], 0.0)
        np.testing.assert_array_equal(g[:, 1, 1], 0.0)
        np.testing.assert_array_equal(g[:, 0, 1], -g[:, 1, 0])

    def test_gauge_flip_leaves_physics(self):
        """A global sign flip of one eigenvector negates both off-diagonal
        couplings, leaving their product (the kernel) untouched."""
        flipped = self.FRAME.vectors.copy()
        flipped[:, :, 0] *= -1.0
        frame2 = dataclasses.replace(self.FRAME, vectors=flipped)
        fd = finite_difference_couplings(self.FRAME)
        fd2 = finite_difference_couplings(frame2)
        assert np.max(np.abs(fd2[:, 0, 1] + fd[:, 0, 1])) < 1e-10
        assert np.max(np.abs(np.abs(fd2) - np.abs(fd))) < 1e-10


class TestPhases:
    def test_free_sweep_against_dense_quadrature(self):
        phases = dynamical_phases(FAST, None, GRID_FAST)
        tt = np.linspace(0.0, 5.0, 200001)
        radial = FAST.radial(tt)
        dense = -2.0 * OMEGA * np.concatenate(
            [[0.0], np.cumsum(0.5 * (radial[1:] + radial[:-1]) * np.diff(tt))]
        )
        reference = np.interp(GRID_FAST.times, tt, dense)
        assert np.max(np.abs(phases[::2] - reference)) < 1e-9

    def test_impulsive_cell_integrates_exactly(self):
        """A single tall control cell shifts Lambda by -2 c int_cell r."""
        j = 1250
        values = np.zeros(GRID_FAST.n_steps)
        values[j] = 40.0
        control = SampledSignal(GRID_FAST, values)
        free = dynamical_phases(FAST, None, GRID_FAST)
        driven = dynamical_phases(FAST, control, GRID_FAST)
        diff = driven[::2] - free[::2]
        assert np.max(np.abs(diff[: j + 1])) == 0.0
        tt = np.linspace(GRID_FAST.times[j], GRID_FAST.times[j + 1], 20001)
        cell_area = trapezoid(FAST.radial(tt), tt)
        np.testing.assert_allclose(diff[j + 1 :], -2.0 * 40.0 * cell_area, atol=1e-12)

    def test_shared_geometry_keeps_every_bit(self):
        """The sweep's control-free geometry is formed once per (sweep, grid);
        the phases and kernel factors equal, bit for bit, those formed from
        it afresh on every call."""

        def afresh(sweep, control, grid):
            if control is None:
                kappa = np.full(grid.n_steps, sweep.base_freq)
            else:
                kappa = sweep.base_freq + np.maximum(control.values, -0.9 * sweep.base_freq)
            r = sweep.radial(np.arange(4 * grid.n_steps + 1) * (0.25 * grid.dt))
            h = 0.5 * grid.dt
            half_areas = (h / 6.0) * (r[:-1:2] + 4.0 * r[1::2] + r[2::2])
            lam = np.concatenate([[0.0], np.cumsum(-2.0 * np.repeat(kappa, 2) * half_areas)])
            half = 0.5 * sweep.angle_velocity(grid.times)
            return lam, half * np.exp(1j * lam[::2]), half * np.exp(-1j * lam[::2])

        shot = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=20.0))
        for control in (None, shot.sample(substream(3, 0), GRID_FAST), None):
            expected = afresh(FAST, control, GRID_FAST)
            found = (dynamical_phases(FAST, control, GRID_FAST),
                     *_kernel_factors(FAST, control, GRID_FAST))
            assert [a.tobytes() for a in found] == [a.tobytes() for a in expected]

    def test_propagator_equal_time_positive(self):
        """g(t, s) = u(t) v(s); at t = s it is real and (thetadot/2)^2."""
        u, v = _kernel_factors(FAST, None, GRID_FAST)
        for t in (0.0, 1.0, 2.5, 5.0):
            i = int(round(t / GRID_FAST.dt))
            g = u[i] * v[i]
            assert g.imag == pytest.approx(0.0, abs=1e-15)
            assert g.real == pytest.approx((0.5 * FAST.angle_velocity(t)) ** 2)

    def test_propagator_modulus_control_independent(self):
        """The control only spins the phase of g, never its modulus."""
        values = np.full(GRID_FAST.n_steps, 3.0)
        control = SampledSignal(GRID_FAST, values)
        u_a, v_a = _kernel_factors(FAST, None, GRID_FAST)
        u_b, v_b = _kernel_factors(FAST, control, GRID_FAST)
        i = int(round(2.0 / GRID_FAST.dt))
        ga = u_a[i] * v_a[:1001]
        gb = u_b[i] * v_b[:1001]
        np.testing.assert_allclose(np.abs(ga), np.abs(gb), rtol=1e-12)
        assert not np.allclose(ga, gb)


class TestSolvers:
    def test_volterra_matches_rk4_free(self):
        for sweep, grid in ((FAST, GRID_FAST), (SLOW, GRID_SLOW)):
            volt = solve_psi0(sweep, None, grid)
            rk4 = tdse_oracle(sweep, None, grid)
            assert np.max(np.abs(volt.magnitudes - rk4.magnitudes)) < 1e-6

    def test_volterra_matches_rk4_controlled(self):
        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=50.0))
        control = family.sample(substream(3, 0), GRID_FAST)
        volt = solve_psi0(FAST, control, GRID_FAST)
        rk4 = tdse_oracle(FAST, control, GRID_FAST)
        assert np.max(np.abs(volt.magnitudes - rk4.magnitudes)) < 1e-5

    def test_rk4_norm_conserved(self):
        components = tdse_components(SLOW, None, GRID_SLOW)
        norms = (np.abs(components) ** 2).sum(axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_slow_passage_adiabatic_fast_not(self):
        slow = solve_psi0(SLOW, None, GRID_SLOW)
        fast = solve_psi0(FAST, None, GRID_FAST)
        assert slow.magnitudes[-1] >= 0.99
        assert fast.magnitudes[-1] < 0.9

    def test_final_state_in_lab_frame(self):
        """Reassembling the lab state at t = T and projecting it onto the
        end-point ground state reproduces the adiabatic population."""
        components = tdse_components(SLOW, None, GRID_SLOW)
        frame = build_eigen_frame(SLOW, None, GRID_SLOW)
        # theta_n = -int_0^T E_n, so theta_0 = -Lambda/2 and theta_1 = Lambda/2
        lam = dynamical_phases(SLOW, None, GRID_SLOW)[-1]
        psi_lab = (
            components[-1, 0] * np.exp(-0.5j * lam) * frame.vectors[-1, :, 0]
            + components[-1, 1] * np.exp(0.5j * lam) * frame.vectors[-1, :, 1]
        )
        target = frame.vectors[-1, :, 0]
        assert abs(np.vdot(target, psi_lab)) >= 0.99

    def test_fd_coupling_kernel_reproduces_dynamics(self):
        """Same Volterra solve with finite-difference couplings in the
        kernel: gauge-fixed numerics and analytic form give one curve."""
        frame = build_eigen_frame(FAST, None, GRID_FAST)
        fd = finite_difference_couplings(frame)
        lam = dynamical_phases(FAST, None, GRID_FAST)[::2]
        u = fd[:, 0, 1] * np.exp(1j * lam)
        v = -fd[:, 1, 0] * np.exp(-1j * lam)

        y, _ = volterra_solve(u, v, GRID_FAST, 1.0 + 0.0j)
        reference = solve_psi0(FAST, None, GRID_FAST)
        assert np.max(np.abs(np.abs(y) - reference.magnitudes)) < 1e-5

    def test_curve_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="start"):
            Psi0Curve(grid, np.full(5, 0.5 + 0.0j), np.zeros(5))
        bad = np.ones(5, dtype=complex)
        bad[3] = 1.01
        with pytest.raises(ValueError, match="exceeded"):
            Psi0Curve(grid, bad, np.zeros(5))

    def test_curve_defect_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="defect must have shape"):
            Psi0Curve(grid, np.ones(5, dtype=complex), defect=np.zeros(4))


class TestDefect:
    def test_frozen_hamiltonian_has_none(self):
        """A frozen eigenbasis (thetadot = 0) gives a zero kernel."""
        zero = np.zeros(GRID_FAST.n_steps + 1, dtype=complex)
        y, memory = volterra_solve(zero, zero, GRID_FAST, 1.0 + 0.0j)
        assert np.all(np.abs(memory) == 0.0)
        assert np.all(y == 1.0)

    def test_slow_sweep_suppresses_defect(self):
        fast_defect = solve_psi0(FAST, None, GRID_FAST).defect
        slow_defect = solve_psi0(SLOW, None, GRID_SLOW).defect
        assert slow_defect.max() < 0.02 * fast_defect.max()

    @pytest.mark.parametrize("sweep, grid", [(FAST, GRID_FAST), (SLOW, GRID_SLOW)])
    @pytest.mark.parametrize("driven", [False, True])
    def test_matches_two_component_oracle(self, sweep, grid, driven):
        """d psi_0/dt = -(thetadot/2) e^{i Lambda} psi_1 in the two-component
        frame, so the defect equals (thetadot/2) |psi_1|, the RK4 oracle's."""
        control = None
        if driven:
            family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=50.0))
            control = family.sample(substream(3, 0), grid)
        defect = solve_psi0(sweep, control, grid).defect
        oracle = tdse_oracle(sweep, control, grid).defect
        assert np.max(np.abs(defect - oracle)) < 1e-5

    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_shot_control_reduces_defect_between_kicks(self):
        """Checked at every multiple of the mean arrival spacing."""
        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=100.0))
        mean, _ = ensemble_mean(sweep_block(family, 7, GRID_FAST), 8)
        free_defect = solve_psi0(FAST, None, GRID_FAST).defect
        spacing = int(round(0.01 / GRID_FAST.dt))
        idx = np.arange(spacing, GRID_FAST.n_steps + 1, spacing)
        assert np.all(mean[1][idx] < free_defect[idx])


class TestEnsemble:
    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_monotone_induction_in_rate(self):
        """More frequent kicks at fixed strength help the fast sweep more."""
        finals = []
        for rate in (10.0, 30.0, 100.0):
            family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=rate))
            mean, _ = ensemble_mean(sweep_block(family, 7, GRID_FAST), 8)
            finals.append(mean[0, -1])
        assert finals[0] < finals[1] < finals[2]
        assert finals[0] > solve_psi0(FAST, None, GRID_FAST).magnitudes[-1]

    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_same_seed_bitwise(self):
        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=20.0))
        grid = TimeGrid(t_max=5.0, n_steps=500)
        a_mean, a_stderr = ensemble_mean(sweep_block(family, 9, grid), 4)
        b_mean, b_stderr = ensemble_mean(sweep_block(family, 9, grid), 4)
        np.testing.assert_array_equal(a_mean[0], b_mean[0])
        np.testing.assert_array_equal(a_stderr[0], b_stderr[0])

    @pytest.mark.filterwarnings("ignore:shot rate")
    def test_threaded_map_identical(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        family = SignalFamily(kind="shot", shot=ShotNoiseSpec(strength=0.1, rate=20.0))
        grid = TimeGrid(t_max=5.0, n_steps=500)
        block = sweep_block(family, 9, grid)
        serial, _ = ensemble_mean(block, 20)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        threaded, _ = ensemble_mean(block, 20, workers=3)
        np.testing.assert_array_equal(serial[0], threaded[0])

    def test_single_trajectory_stderr_zero(self):
        family = SignalFamily(kind="none")
        grid = TimeGrid(t_max=5.0, n_steps=500)
        _, stderr = ensemble_mean(sweep_block(family, 0, grid), 1)
        assert np.all(stderr == 0.0)

    def test_validation(self):
        family = SignalFamily(kind="none")
        with pytest.raises(ValueError, match="n_traj"):
            ensemble_mean(sweep_block(family, 0, GRID_FAST), 0)
