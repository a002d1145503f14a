"""Exact noise-averaged fidelity of a dissipative qubit under fast control.

The whole memory effect of the bath is carried by one complex kernel

    F(t) = int_0^t ds alpha(t, s) f(t, s),
    d/dt f(t, s) = [i E(t) + F(t)] f(t, s),   f(s, s) = 1,

with E(t) = omega + c(t) the control-shifted splitting.  Because the
correlation is exponential, F obeys a closed Riccati equation

    dF/dt = coupling*cutoff/2 + (i E(t) + F(t) - cutoff) * F(t),  F(0) = 0,

which is the production path.  An O(n^2) quadrature solver that never forms
the Riccati equation is kept alongside as a cross-method oracle.

Given the kernel, the fidelity of an initial state mu|1> + nu|0> follows in
closed form from the running integrals of F:

    F_fid(t) = 1 - p - (p - 2 p^2) e^{-2 Re INT(t)}
               + 2 (p - p^2) Re e^{-INT(t)},      p = |mu|^2,

with INT(t) = int_0^t F(s) ds.  At t = 0 this is identically 1.  The form
is affine in (1 - p, p - 2 p^2, 2 (p - p^2)), so an average over states
averages those three coefficients and evaluates the curve once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bath import BathSpec
from .numerics import NumericOverflowError, TimeGrid, running_trapezoid
from .signals import SignalFamily, effective_frequency, substream

__all__ = [
    "InitialState",
    "KernelCurve",
    "FidelityCurve",
    "default_state_grid",
    "solve_kernel_riccati",
    "solve_kernel_quadrature",
    "qsd_fidelity",
    "qsd_mean_fidelity",
    "MemoryTrajectory",
]

_KERNEL_BOUND = 1.0e6


@dataclass(frozen=True)
class InitialState:
    """Pure qubit state mu|1> + nu|0>, normalised to 1e-12."""

    excited_amp: complex
    ground_amp: complex

    def __post_init__(self) -> None:
        norm = abs(self.excited_amp) ** 2 + abs(self.ground_amp) ** 2
        if abs(norm - 1.0) > 1.0e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    @classmethod
    def from_excited_prob(cls, p: float) -> "InitialState":
        """Real-amplitude state with |mu|^2 = p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"excited probability must lie in [0, 1], got {p}")
        return cls(np.sqrt(p), np.sqrt(1.0 - p))

    @property
    def p_excited(self) -> float:
        return abs(self.excited_amp) ** 2


def default_state_grid() -> list[InitialState]:
    """Nine real-amplitude states with |mu|^2 = 0.1 .. 0.9.

    This is the averaging set used whenever results are quoted per signal
    family rather than per state.
    """
    return [InitialState.from_excited_prob(p) for p in np.arange(1, 10) / 10.0]


@dataclass(frozen=True)
class KernelCurve:
    """Memory kernel F on the grid nodes (complex, F[0] = 0)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"kernel must have shape ({self.grid.n_steps + 1},), got {values.shape}"
            )
        if values[0] != 0.0:
            raise ValueError("kernel must start at F(0) = 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity on the grid nodes."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"fidelity must have shape ({self.grid.n_steps + 1},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("fidelity values must be finite")
        if abs(values[0] - 1.0) > 1.0e-9:
            raise ValueError(f"fidelity must start at 1, got {values[0]!r}")
        object.__setattr__(self, "values", values)

    @property
    def final(self) -> float:
        return float(self.values[-1])


def _cell_drive(E: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Validate the shifted splitting and return i E, one value per cell."""
    E = np.asarray(E, dtype=float)
    if E.shape != (grid.n_steps,):
        raise ValueError(
            f"E must hold one midpoint sample per cell, shape ({grid.n_steps},), "
            f"got {E.shape}"
        )
    return 1j * E


def solve_kernel_riccati(E: np.ndarray, bath: BathSpec, grid: TimeGrid) -> KernelCurve:
    """Integrate the closed kernel equation with RK4, one cell at a time.

    E is the control-shifted splitting from effective_frequency, constant
    inside each grid cell (midpoint sample), so each RK4 step integrates a
    smooth autonomous equation; discontinuities of E(t) sit exactly on step
    boundaries and never degrade the order.

    The loop is all scalar work, so it runs on Python complex over a list,
    2-3 times faster per step than on numpy scalars and bit for bit the
    same arithmetic.  Raises NumericOverflowError at the first node where
    |F| exceeds the kernel bound or F is not finite.
    """
    dt = grid.dt
    w = bath.weight
    sixth = dt / 6.0
    half = 0.5 * dt
    f = 0j
    values = [f]
    for rate in (_cell_drive(E, grid) - bath.cutoff).tolist():
        k1 = w + (rate + f) * f
        y = f + half * k1
        k2 = w + (rate + y) * y
        y = f + half * k2
        k3 = w + (rate + y) * y
        y = f + dt * k3
        k4 = w + (rate + y) * y
        f = f + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        # the negated comparison also catches nan
        if not abs(f) <= _KERNEL_BOUND:
            raise NumericOverflowError(
                f"memory kernel diverged at t = {grid.times[len(values)]:.6g}"
            )
        values.append(f)
    return KernelCurve(grid, np.array(values))


def solve_kernel_quadrature(
    E: np.ndarray, bath: BathSpec, grid: TimeGrid
) -> KernelCurve:
    """Cross-method oracle: march f(t, s) for every history point s.

    Within one cell E is constant and F varies slowly, so each f(., s) is
    advanced by the exact exponential of the cell-integrated rate,
    exp(i E_k dt + int_cell F), with int_cell F refined by one trapezoid
    corrector pass.  F(t) itself is then a plain trapezoid over the history.
    O(n^2) work, O(n) memory; independent of the Riccati reduction.
    """
    n = grid.n_steps
    dt = grid.dt
    drive = _cell_drive(E, grid)
    w = bath.weight
    decay = np.exp(-bath.cutoff * dt)

    f_hist = np.empty(n + 1, dtype=complex)  # f(t_k, s_j) for j <= k
    corr = np.empty(n + 1, dtype=complex)  # alpha(t_k, s_j) / weight
    f_hist[0] = 1.0
    corr[0] = 1.0
    values = np.empty(n + 1, dtype=complex)
    values[0] = 0.0
    f_curr = 0.0 + 0.0j

    def history_integral(k: int) -> complex:
        integrand = corr[: k + 1] * f_hist[: k + 1]
        return w * dt * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[k]))

    for k in range(n):
        # predictor: advance every f(., s) with the rectangle rule for int F
        step0 = np.exp(drive[k] * dt + dt * f_curr)
        corr[: k + 1] *= decay
        corr[k + 1] = 1.0
        f_hist[k + 1] = 1.0
        f_hist[: k + 1] *= step0
        f_pred = history_integral(k + 1)
        # corrector: redo the advance with the trapezoid of (F_k, F_pred)
        step1 = np.exp(drive[k] * dt + 0.5 * dt * (f_curr + f_pred))
        f_hist[: k + 1] *= step1 / step0
        f_next = history_integral(k + 1)
        if not np.isfinite(f_next) or abs(f_next) > _KERNEL_BOUND:
            raise NumericOverflowError(
                f"memory kernel diverged at t = {grid.times[k + 1]:.6g}"
            )
        values[k + 1] = f_next
        f_curr = f_next
    return KernelCurve(grid, values)


def qsd_fidelity(state: InitialState, kernel: KernelCurve) -> FidelityCurve:
    """Closed-form noise-averaged fidelity from the kernel's running integrals.

    Bounded inside [0, 1] whenever Re int F >= 0; a transiently negative
    running integral is physically admissible for strongly non-Markovian
    baths, so it is reported as a warning rather than an error.
    """
    return qsd_mean_fidelity([state], kernel)


def qsd_mean_fidelity(states: Sequence[InitialState], kernel: KernelCurve) -> FidelityCurve:
    """Uniform average of qsd_fidelity over `states`, at the cost of one state."""
    p = np.array([state.p_excited for state in states])
    integral = running_trapezoid(kernel.values, kernel.grid.dt)
    re_int = integral.real
    if np.min(re_int) < 0.0:
        warnings.warn(
            "Re int F dipped below zero; fidelity is not guaranteed to stay in [0, 1]",
            RuntimeWarning,
            stacklevel=2,
        )
    # the per-state formula's evaluation order, so one state reproduces it bit for bit
    values = (
        np.mean(1.0 - p)
        - np.mean(p - 2.0 * p * p) * np.exp(-2.0 * re_int)
        + np.mean(2.0 * (p - p * p)) * np.real(np.exp(-integral))
    )
    return FidelityCurve(kernel.grid, values)


@dataclass(frozen=True)
class MemoryTrajectory:
    """Trajectory k of a memory experiment, as a picklable unit of ensemble work.

    The control comes from substream (master_seed, k); returns one row, the
    fidelity averaged over `states`, named by `rows`.
    """

    family: SignalFamily
    bath: BathSpec
    states: tuple
    master_seed: int
    grid: TimeGrid
    omega: float

    rows = ("qsd",)

    def __post_init__(self) -> None:
        if len(self.states) == 0:
            raise ValueError("states must be non-empty")
        object.__setattr__(self, "states", tuple(self.states))

    def __call__(self, k: int) -> np.ndarray:
        signal = self.family.sample(substream(self.master_seed, k), self.grid)
        return self.fidelity(effective_frequency(signal, self.omega)).values[np.newaxis]

    def fidelity(self, E: np.ndarray) -> FidelityCurve:
        return qsd_mean_fidelity(self.states, solve_kernel_riccati(E, self.bath, self.grid))

