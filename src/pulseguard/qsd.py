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

with INT(t) = int_0^t F(s) ds.  At t = 0 this is identically 1.  The state
enters only through its excited probability p, so a state is the float p
in [0, 1].  The form is affine in (1 - p, p - 2 p^2, 2 (p - p^2)), so an
average over states averages those three coefficients and evaluates the
curve once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bath import BathSpec
from .ensemble import stack_trajectories
from .numerics import NumericOverflowError, TimeGrid, running_trapezoid
from .signals import SignalFamily, effective_frequency, substream

__all__ = [
    "DEFAULT_STATES",
    "KernelCurve",
    "FidelityCurve",
    "solve_kernel_riccati",
    "solve_kernel_quadrature",
    "qsd_fidelity",
    "MemoryTrajectory",
]

_KERNEL_BOUND = 1.0e6

# the excited probabilities p = 0.1 .. 0.9, the averaging set used whenever
# results are quoted per signal family rather than per state
DEFAULT_STATES = tuple((np.arange(1, 10) / 10.0).tolist())


@dataclass(frozen=True)
class KernelCurve:
    """Memory kernel F on the grid nodes (complex, F[..., 0] = 0).

    One curve has shape (n_steps + 1,); a batch of B curves, one per drive,
    has shape (B, n_steps + 1).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (1, 2) or values.shape[-1] != self.grid.n_steps + 1:
            raise ValueError(
                f"kernel must have shape ({self.grid.n_steps + 1},) or "
                f"(B, {self.grid.n_steps + 1}), got {values.shape}"
            )
        if np.any(values[..., 0] != 0.0):
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

    E holds one drive, shape (n_steps,), or a batch of B drives, shape
    (B, n_steps), and the kernel has the matching shape (n_steps + 1,) or
    (B, n_steps + 1).  One drive runs the scalar loop on Python complex,
    2-3 times faster per step than on numpy scalars and bit for bit the
    same arithmetic.  A batch runs the same operations in the same order
    over (B,) rows, one ufunc call each per step for the whole batch; at
    B = 1 that loop is the scalar loop bit for bit, and at B > 1 numpy's
    vectorised complex product may round differently, by ~1e-16 per row.
    Both loops run to the end without checking; one check then raises
    NumericOverflowError at the first node where |F| exceeds the kernel
    bound or F is not finite, in the first such row, which the error's
    `row` names (0 for one drive).
    """
    E = np.asarray(E, dtype=float)
    n = grid.n_steps
    if E.ndim not in (1, 2) or E.shape[-1] != n:
        raise ValueError(
            f"E must hold one midpoint sample per cell, shape ({n},) or (B, {n}), "
            f"got {E.shape}"
        )
    rows = E.reshape(-1, n)
    if len(rows) == 1:
        values = _riccati_loop(rows[0], bath, grid)[np.newaxis]
    else:
        values = _riccati_rows(rows, bath, grid)
    _check_rows(values, grid)
    return KernelCurve(grid, values.reshape(E.shape[:-1] + (n + 1,)))


def _riccati_loop(E: np.ndarray, bath: BathSpec, grid: TimeGrid) -> np.ndarray:
    """The RK4 loop for one drive, on Python complex; a diverged F runs on to inf or nan."""
    dt = grid.dt
    w = bath.weight
    sixth = dt / 6.0
    half = 0.5 * dt
    f = 0j
    values = [f]
    for rate in (1j * E - bath.cutoff).tolist():
        k1 = w + (rate + f) * f
        y = f + half * k1
        k2 = w + (rate + y) * y
        y = f + half * k2
        k3 = w + (rate + y) * y
        y = f + dt * k3
        k4 = w + (rate + y) * y
        f = f + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        values.append(f)
    return np.array(values)


def _riccati_rows(E: np.ndarray, bath: BathSpec, grid: TimeGrid) -> np.ndarray:
    """_riccati_loop over the rows of E, shape (B, n_steps), as (B,) arrays.

    Returns the (B, n_steps + 1) kernels, as the transpose of a node-major
    buffer, without checking them: a diverged row runs on to inf or nan.
    """
    n = grid.n_steps
    out = np.empty((n + 1, len(E)), dtype=complex)
    out[0] = 0.0
    # cell i's rate waits in out[i + 1] until the step writes F over it
    rates = out[1:]
    np.multiply(1j, E.T, rates)
    np.subtract(rates, bath.cutoff, rates)
    k1, k2, k3, y = (np.empty(len(E), dtype=complex) for _ in range(4))
    # the Python floats as complex scalars: the same values, cast once
    w, dt, half, sixth, two = (
        np.complex128(x) for x in (bath.weight, grid.dt, 0.5 * grid.dt, grid.dt / 6.0, 2.0)
    )
    add, mul = np.add, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        for f, rate in zip(out[:-1], rates):
            add(rate, f, k1)  # k1 = w + (rate + f) * f
            mul(k1, f, k1)
            add(k1, w, k1)
            mul(k1, half, y)  # y = f + half * k1
            add(f, y, y)
            add(rate, y, k2)  # k2 = w + (rate + y) * y
            mul(k2, y, k2)
            add(k2, w, k2)
            mul(k2, half, y)  # y = f + half * k2
            add(f, y, y)
            add(rate, y, k3)  # k3 = w + (rate + y) * y
            mul(k3, y, k3)
            add(k3, w, k3)
            mul(k3, dt, y)  # y = f + dt * k3
            add(f, y, y)
            add(k2, k3, k2)  # k2 + k3, so k3's buffer can take k4
            add(rate, y, k3)  # k4 = w + (rate + y) * y
            mul(k3, y, k3)
            add(k3, w, k3)
            mul(k2, two, k2)  # F = f + sixth * (k1 + 2 (k2 + k3) + k4), over the rate
            add(k1, k2, k1)
            add(k1, k3, k1)
            mul(k1, sixth, k1)
            add(f, k1, rate)
    return out.T


def _check_rows(values: np.ndarray, grid: TimeGrid) -> None:
    """Raise at the first node of the first row where |F| exceeds the kernel
    bound or F is not finite, naming that row.

    Row by row, so the only temporaries are one row's |F| and mask.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for row, F in enumerate(values):
            bad = ~(np.abs(F) <= _KERNEL_BOUND)
            if bad.any():
                raise NumericOverflowError(
                    f"memory kernel diverged at t = {grid.times[np.argmax(bad)]:.6g}", row
                )


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


def qsd_fidelity(states: Sequence[float], kernel: KernelCurve) -> FidelityCurve:
    """Closed-form noise-averaged fidelity, uniformly averaged over `states`.

    Each state is its excited probability p; one state is (p,).  The curve
    costs one evaluation whatever the number of states.  Bounded inside
    [0, 1] whenever Re int F >= 0; a transiently negative running integral
    is physically admissible for strongly non-Markovian baths, so it is
    reported as a warning rather than an error.
    """
    p = np.array(states, dtype=float)
    integral = running_trapezoid(kernel.values, kernel.grid.dt)
    re_int = integral.real
    if np.min(re_int) < 0.0:
        warnings.warn(
            "Re int F dipped below zero; fidelity is not guaranteed to stay in [0, 1]",
            RuntimeWarning,
            stacklevel=2,
        )
    # the written-out formula's evaluation order, so one state reproduces it bit for bit
    values = (
        np.mean(1.0 - p)
        - np.mean(p - 2.0 * p * p) * np.exp(-2.0 * re_int)
        + np.mean(2.0 * (p - p * p)) * np.real(np.exp(-integral))
    )
    return FidelityCurve(kernel.grid, values)


@dataclass(frozen=True)
class MemoryTrajectory:
    """The trajectories of a memory experiment, as picklable units of ensemble work.

    Trajectory k's control comes from substream (master_seed, k); its one
    row, named by `rows`, is the fidelity averaged over `states`, the
    excited probabilities p of the initial states.
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
        if not all(0.0 <= p <= 1.0 for p in self.states):
            raise ValueError(f"states must be excited probabilities in [0, 1], got {self.states}")
        object.__setattr__(self, "states", tuple(self.states))

    def splitting(self, k: int) -> np.ndarray:
        """E = omega + c(t) of trajectory k, one value per cell."""
        signal = self.family.sample(substream(self.master_seed, k), self.grid)
        return effective_frequency(signal, self.omega)

    def block(self, ks: Sequence[int]) -> np.ndarray:
        """Rows of the trajectories ks, shape (len(ks), 1, n_steps + 1).

        The kernels of the whole block come from one batched solve; an
        overflow, in sampling or in the solve, names its position in ks as
        the error's `row`.
        """
        # the stacked drives are freed once the kernels are solved
        kernels = solve_kernel_riccati(
            stack_trajectories(self.splitting, ks), self.bath, self.grid
        ).values
        out = np.empty((len(ks), 1, self.grid.n_steps + 1))
        for row, F in zip(out, kernels):
            row[0] = qsd_fidelity(self.states, KernelCurve(self.grid, F)).values
        return out
