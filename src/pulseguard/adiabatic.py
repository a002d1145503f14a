"""Finite-time sweep of a two-level crossing, reduced to one amplitude.

The Hamiltonian is H(t) = (omega + c(t)) [ (t/T) sig_x + (1 - t/T) sig_z ]:
a linear interpolation from sig_z to sig_x whose overall scale carries the
control.  In the frame of the instantaneous eigenvectors the amplitude
psi_0 on the (ground) target eigenstate obeys an exact one-dimensional
integro-differential equation

    d/dt psi_0(t) = - int_0^t g(t, s) psi_0(s) ds,

with the propagator

    g(t, s) = -<E0(t)|dE1(t)> <E1(s)|dE0(s)> exp[ int_s^t (i E - <E1|dE1>) ],

E = E0 - E1 the signed gap.  In the real gauge the Berry terms vanish and
the geometric couplings reduce to half the mixing-angle velocity,
thetadot = (1/T) / (2 s^2 - 2 s + 1) with s = t/T, and the propagator
separates: g(t, s) = u(t) v(s) with u = (thetadot/2) exp(i Lambda) and
v = (thetadot/2) exp(-i Lambda), Lambda = int_0^t E.  A two-component
Schroedinger integration in the same frame serves as the independent
oracle.  |int_0^t g(t,s) psi_0(s) ds| is the adiabaticity defect: the sweep
is adiabatic exactly where it stays small, and a fast control c(t) shrinks
it by speeding up the oscillatory exponent.  The Volterra solve computes the
memory integral anyway, so the defect comes out of the same pass.  The
eigenframe cross-checks live in sweep_oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import TimeGrid, rk4_step, volterra_solve
from .signals import SampledSignal, SignalFamily, substream

__all__ = [
    "SweepSpec",
    "PhaseTable",
    "Psi0Curve",
    "PassageTrajectory",
    "dynamical_phases",
    "solve_psi0",
    "tdse_oracle",
    "tdse_components",
]

# the control may not close the gap or flip the sweep's sign
_CLAMP_FRACTION = -0.9
_ABS_TOLERANCE = 1.0e-3  # admissible |psi_0| overshoot from discretization


@dataclass(frozen=True)
class SweepSpec:
    """Linear sweep schedule a(s) = s, b(s) = 1 - s over passage time T.

    At t = 0 the Hamiltonian is base_freq * sig_z, at t = T it is
    base_freq * sig_x; the minimum gap 2^(1/2) * base_freq occurs midway.
    """

    passage_time: float
    base_freq: float = 1.0

    def __post_init__(self) -> None:
        if not (self.passage_time > 0.0 and np.isfinite(self.passage_time)):
            raise ValueError(f"passage_time must be positive, got {self.passage_time}")
        if not (self.base_freq > 0.0):
            raise ValueError(f"base_freq must be positive, got {self.base_freq}")

    def mixing_angle(self, t):
        """theta(t) = atan2(s, 1 - s), the rotation angle of the eigenbasis."""
        s = np.asarray(t, dtype=float) / self.passage_time
        return np.arctan2(s, 1.0 - s)

    def angle_velocity(self, t):
        """thetadot(t) = (1/T) / (2 s^2 - 2 s + 1); peaks at 2/T midway."""
        s = np.asarray(t, dtype=float) / self.passage_time
        return (1.0 / self.passage_time) / (2.0 * s * s - 2.0 * s + 1.0)

    def radial(self, t):
        """|a, b|(t): the gap is 2 (omega + c) radial(t)."""
        s = np.asarray(t, dtype=float) / self.passage_time
        return np.sqrt(2.0 * s * s - 2.0 * s + 1.0)


def _clamped_control(sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid):
    """Per-cell prefactor kappa = omega + c, with c clamped above -0.9 omega."""
    if control is None:
        return np.full(grid.n_steps, sweep.base_freq)
    if control.grid != grid:
        raise ValueError("control signal was sampled on a different grid")
    c = np.maximum(control.values, _CLAMP_FRACTION * sweep.base_freq)
    return sweep.base_freq + c


@dataclass(frozen=True)
class PhaseTable:
    """Dynamical phases of the sweep at half-step resolution.

    fine[j] is Lambda(j * dt/2) where Lambda(t) = int_0^t (E0 - E1), built
    cell by cell with the exact per-cell control value (Simpson on the
    smooth radial factor), so impulsive controls integrate correctly.
    theta[:, n] = -int_0^t E_n at the nodes.
    """

    grid: TimeGrid
    fine: np.ndarray
    theta: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.fine[::2]


def dynamical_phases(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> PhaseTable:
    kappa = _clamped_control(sweep, control, grid)
    n = grid.n_steps
    dt = grid.dt
    quarter = np.arange(4 * n + 1) * (0.25 * dt)
    r = sweep.radial(quarter)
    # Simpson integrals of the radial factor over each half cell
    h = 0.5 * dt
    r0 = r[:-1:2]
    rm = r[1::2]
    r1 = r[2::2]
    half_areas = (h / 6.0) * (r0 + 4.0 * rm + r1)  # 2n half-cell areas
    increments = -2.0 * np.repeat(kappa, 2) * half_areas
    fine = np.concatenate([[0.0], np.cumsum(increments)])
    lam_nodes = fine[::2]
    # theta_n = -int E_n with E_0 = -kappa r, E_1 = +kappa r, Lambda = -2 int kappa r
    theta = np.stack([-lam_nodes / 2.0, lam_nodes / 2.0], axis=1)
    return PhaseTable(grid=grid, fine=fine, theta=theta)


@dataclass(frozen=True)
class Psi0Curve:
    """Complex amplitude on the target eigenstate along the sweep.

    defect, when present, is the adiabaticity defect |int_0^t g psi_0| on
    the nodes.
    """

    grid: TimeGrid
    amplitudes: np.ndarray
    defect: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"amplitudes must have shape ({self.grid.n_steps + 1},), got {amp.shape}"
            )
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        mags = np.abs(amp)
        if abs(mags[0] - 1.0) > 1.0e-12:
            raise ValueError("the sweep must start fully on the target eigenstate")
        if np.max(mags) > 1.0 + _ABS_TOLERANCE:
            raise ValueError(
                f"|psi_0| exceeded 1 by more than {_ABS_TOLERANCE:g}; "
                "refine the grid or check the kernel"
            )
        object.__setattr__(self, "amplitudes", amp)
        if self.defect is not None and np.shape(self.defect) != amp.shape:
            raise ValueError(
                f"defect must have shape {amp.shape}, got {np.shape(self.defect)}"
            )

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    @property
    def final_magnitude(self) -> float:
        return float(np.abs(self.amplitudes[-1]))


def _kernel_factors(sweep, control, grid):
    """u(t), v(s) on the nodes, with g(t, s) = u(t) v(s)."""
    lam = dynamical_phases(sweep, control, grid).nodes
    half = 0.5 * sweep.angle_velocity(grid.times)
    return half * np.exp(1j * lam), half * np.exp(-1j * lam)


def solve_psi0(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> Psi0Curve:
    """Production path: Volterra integro-differential solve of psi_0.

    Local rate is zero (real gauge kills the Berry term); the kernel goes to
    numerics.volterra_solve as its factors u, v, and the memory integral the
    solve returns gives the defect.
    """
    u, v = _kernel_factors(sweep, control, grid)
    amplitudes, memory = volterra_solve(u, v, grid, 1.0 + 0.0j)
    return Psi0Curve(grid, amplitudes, defect=np.abs(memory))


def tdse_components(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> tuple[np.ndarray, PhaseTable]:
    """RK4 integration of the two-component adiabatic-frame equation.

    Returns the (n+1, 2) array of amplitudes (psi_0, psi_1) and the phase
    table; the off-diagonal couplings oscillate with exp(+-i Lambda(t)) and
    the diagonal ones vanish in the real gauge.
    """
    phases = dynamical_phases(sweep, control, grid)
    fine = phases.fine
    dt = grid.dt

    def derivative(t: float, y: np.ndarray) -> np.ndarray:
        lam = fine[int(round(t / (0.5 * dt)))]
        half = 0.5 * sweep.angle_velocity(t)
        return np.array(
            [
                -half * np.exp(1j * lam) * y[1],
                half * np.exp(-1j * lam) * y[0],
            ]
        )

    out = np.empty((grid.n_steps + 1, 2), dtype=complex)
    out[0] = (1.0, 0.0)
    y = out[0]
    for k in range(grid.n_steps):
        y = rk4_step(derivative, grid.times[k], y, dt)
        out[k + 1] = y
    return out, phases


def tdse_oracle(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> Psi0Curve:
    components, _ = tdse_components(sweep, control, grid)
    return Psi0Curve(grid, components[:, 0])


@dataclass(frozen=True)
class PassageTrajectory:
    """Trajectory k of a sweep, as a picklable unit of ensemble work.

    The control comes from substream (master_seed, k); returns the rows
    (|psi_0|, defect), named by `rows`.
    """

    sweep: SweepSpec
    family: SignalFamily
    master_seed: int
    grid: TimeGrid

    rows = ("psi0", "defect")

    def __call__(self, k: int) -> np.ndarray:
        control = self.family.sample(substream(self.master_seed, k), self.grid)
        curve = solve_psi0(self.sweep, control, self.grid)
        return np.stack([curve.magnitudes, curve.defect])

