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
v = (thetadot/2) exp(-i Lambda), Lambda = int_0^t E, which
dynamical_phases returns as one array at half-step resolution.
|int_0^t g(t,s) psi_0(s) ds| is the adiabaticity defect: the sweep is
adiabatic exactly where it stays small, and a fast control c(t) shrinks it
by speeding up the oscillatory exponent.  The Volterra solve computes the
memory integral anyway, so the defect comes out of the same pass.  A
two-component Schroedinger integration in the same frame serves as the
independent oracle, defect included: there the defect is
(thetadot/2) |psi_1|.  The eigenframe cross-checks live in sweep_oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .numerics import TimeGrid, rk4_step, volterra_solve
from .signals import SampledSignal

__all__ = [
    "SweepSpec",
    "Psi0Curve",
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
        """atan2(s, 1 - s): the mixing angle, the rotation of the eigenbasis."""
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


@lru_cache(maxsize=8)
def _sweep_geometry(sweep: SweepSpec, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """What every control shares, as read-only arrays: the 2n Simpson areas of
    the radial factor over each half cell, and thetadot / 2 on the nodes."""
    quarter = np.arange(4 * grid.n_steps + 1) * (0.25 * grid.dt)
    r = sweep.radial(quarter)
    h = 0.5 * grid.dt
    r0 = r[:-1:2]
    rm = r[1::2]
    r1 = r[2::2]
    half_areas = (h / 6.0) * (r0 + 4.0 * rm + r1)
    half = 0.5 * sweep.angle_velocity(grid.times)
    half_areas.flags.writeable = False
    half.flags.writeable = False
    return half_areas, half


def dynamical_phases(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> np.ndarray:
    """Lambda(j * dt/2) = int_0^t (E0 - E1) at half-step resolution, j = 0..2n.

    Built cell by cell with the exact per-cell control value (Simpson on the
    smooth radial factor), so impulsive controls integrate correctly; the
    node values are the even entries.
    """
    kappa = _clamped_control(sweep, control, grid)
    half_areas = _sweep_geometry(sweep, grid)[0]
    # E0 - E1 = -2 kappa r
    increments = -2.0 * np.repeat(kappa, 2) * half_areas
    return np.concatenate([[0.0], np.cumsum(increments)])


@dataclass(frozen=True)
class Psi0Curve:
    """Complex amplitude on the target eigenstate along the sweep.

    defect is the adiabaticity defect |int_0^t g psi_0| on the nodes.
    """

    grid: TimeGrid
    amplitudes: np.ndarray
    defect: np.ndarray

    def __post_init__(self) -> None:
        amp = self.grid.on_nodes(self.amplitudes, "amplitudes", complex)
        defect = self.grid.on_nodes(self.defect, "defect")
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
        object.__setattr__(self, "defect", defect)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)


def _kernel_factors(sweep, control, grid):
    """u(t), v(s) on the nodes, with g(t, s) = u(t) v(s)."""
    lam = dynamical_phases(sweep, control, grid)[::2]
    half = _sweep_geometry(sweep, grid)[1]
    return half * np.exp(1j * lam), half * np.exp(-1j * lam)


def solve_psi0(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> Psi0Curve:
    """Production path: Volterra integro-differential solve of psi_0.

    The real gauge kills the Berry term, so the equation has no local rate;
    the kernel goes to numerics.volterra_solve as its factors u, v, and the
    memory integral the solve returns gives the defect.
    """
    u, v = _kernel_factors(sweep, control, grid)
    amplitudes, memory = volterra_solve(u, v, grid, 1.0 + 0.0j)
    return Psi0Curve(grid, amplitudes, defect=np.abs(memory))


def tdse_components(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> np.ndarray:
    """RK4 integration of the two-component adiabatic-frame equation.

    Returns the (n+1, 2) array of amplitudes (psi_0, psi_1); the
    off-diagonal couplings oscillate with exp(+-i Lambda(t)) and the
    diagonal ones vanish in the real gauge.
    """
    fine = dynamical_phases(sweep, control, grid)
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
    return out


def tdse_oracle(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> Psi0Curve:
    """Independent check of solve_psi0 from the two-component integration.

    d psi_0/dt = -(thetadot/2) e^{i Lambda} psi_1, so the defect is
    (thetadot/2) |psi_1|.
    """
    components = tdse_components(sweep, control, grid)
    defect = 0.5 * sweep.angle_velocity(grid.times) * np.abs(components[:, 1])
    return Psi0Curve(grid, components[:, 0], defect)

