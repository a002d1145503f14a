"""Second-order (Born) master-equation fidelity for the dissipative qubit.

This is the perturbative counterpart of the exact treatment in `qsd`; the
two are compared curve-against-curve in the strong-signal experiments.  The
fidelity is the exponential of a double time integral of the bath
correlation against the leakage kernel

    A(t, s) = <sig+(t) sig-(s)>_phi - <sig+(t)><sig-(s)>,

the connected part of the raising/lowering two-time function in the
interaction picture.  At zero temperature the bath correlation matrix has a
single nonvanishing entry (the sig+ sig- channel), which is all this module
implements.  For a pure initial state mu|1> + nu|0> the kernel collapses to

    A(t, s) = |mu|^4 * exp(i(Phi(t) - Phi(s))),   Phi(t) = int_0^t E,

a closed form that the tests re-derive from brute-force 2x2 operator
algebra (me2_oracle holds the kernel they check) before it is trusted here.
The state enters the fidelity only through the prefactor |mu|^4 of that
kernel, so the one O(n) recursion runs once per signal and a uniform average
over states adds only vectorised work per state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bath import BathSpec
from .numerics import TimeGrid, running_trapezoid
from .qsd import FidelityCurve, InitialState, MemoryTrajectory

__all__ = [
    "BornTrajectory",
    "accumulated_phase",
    "me2_fidelity",
    "me2_mean_fidelity",
]


def accumulated_phase(E: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Running integral Phi(t) = int_0^t E(s) ds on the grid nodes.

    Accepts E sampled either at cell midpoints (length n_steps, the native
    convention for piecewise-constant controls, integrated exactly cell by
    cell) or at the nodes (length n_steps + 1, running trapezoid).
    """
    E = np.asarray(E, dtype=float)
    if E.shape == (grid.n_steps,):
        out = np.zeros(grid.n_steps + 1)
        np.cumsum(E * grid.dt, out=out[1:])
        return out
    if E.shape == (grid.n_steps + 1,):
        return running_trapezoid(E, grid.dt)
    raise ValueError(
        f"E must have length {grid.n_steps} (midpoints) or {grid.n_steps + 1} (nodes), "
        f"got {E.shape}"
    )


def me2_fidelity(
    state: InitialState,
    E: np.ndarray,
    bath: BathSpec,
    grid: TimeGrid,
) -> FidelityCurve:
    """Perturbative fidelity exp{-2 int_0^t Re[K(u)] du} with
    K(u) = int_0^u dt' alpha(t') A(u, u - t').

    E is the full shifted splitting omega + c(t), sampled at cell midpoints
    or nodes (see accumulated_phase).  Writing A in its factored form turns
    the inner integral into |mu|^4 w e^{i Phi(u)} j(u) with
    j(u) = int_0^u e^{-cutoff (u-s) - i Phi(s)} ds, which is accumulated by
    an exponentially weighted trapezoid recursion, so the whole curve costs
    O(n).  Stable for any cutoff because the growing exponential is never
    formed.
    """
    return me2_mean_fidelity([state], E, bath, grid)


def me2_mean_fidelity(
    states: Sequence[InitialState],
    E: np.ndarray,
    bath: BathSpec,
    grid: TimeGrid,
) -> FidelityCurve:
    """Uniform average of me2_fidelity over `states`; the j(u) recursion runs once."""
    dt = grid.dt
    phase = accumulated_phase(E, grid)
    decay = np.exp(-bath.cutoff * dt)
    emi = np.exp(-1j * phase)
    j = np.empty(grid.n_steps + 1, dtype=complex)
    j[0] = 0.0
    for k in range(grid.n_steps):
        j[k + 1] = decay * j[k] + 0.5 * dt * (decay * emi[k] + emi[k + 1])
    amp = np.array([state.p_excited**2 for state in states])
    # one row per state; |mu|^4 multiplies before the quadrature, as in the
    # one-state formula, so each row is bitwise that state's curve
    inner = (amp[:, None] * bath.weight) * np.exp(1j * phase) * j
    exponent = 2.0 * running_trapezoid(np.real(inner), dt)
    return FidelityCurve(grid, np.mean(np.exp(-exponent), axis=0))


class BornTrajectory(MemoryTrajectory):
    """MemoryTrajectory with the Born fidelity in place of the exact one."""

    rows = ("me2",)

    def fidelity(self, E: np.ndarray) -> FidelityCurve:
        return me2_mean_fidelity(self.states, E, self.bath, self.grid)
