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

    A(t, s) = p^2 * exp(i(Phi(t) - Phi(s))),   p = |mu|^2,   Phi(t) = int_0^t E,

a closed form that the tests re-derive from brute-force 2x2 operator
algebra (me2_oracle holds the kernel they check) before it is trusted here.
The state enters the fidelity only through the prefactor p^2 of that
kernel, so a state is its excited probability p, the one O(n) recursion
runs once per signal, and a uniform average over states adds only
vectorised work per state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bath import BathSpec
from .ensemble import stack_trajectories
from .numerics import NumericOverflowError, TimeGrid, running_trapezoid
from .qsd import FidelityCurve, MemoryTrajectory

__all__ = [
    "BornTrajectory",
    "accumulated_phase",
    "me2_fidelity",
]


def accumulated_phase(E: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Running integral Phi(t) = int_0^t E(s) ds on the grid nodes.

    E is sampled at the cell midpoints (length n_steps), the convention of
    piecewise-constant controls, so the integral is exact cell by cell.
    """
    out = np.zeros(grid.n_steps + 1)
    np.cumsum(grid.on_cells(E, "E") * grid.dt, out=out[1:])
    return out


def me2_fidelity(
    states: Sequence[float],
    E: np.ndarray,
    bath: BathSpec,
    grid: TimeGrid,
) -> FidelityCurve:
    """Perturbative fidelity exp{-2 int_0^t Re[K(u)] du} with
    K(u) = int_0^u dt' alpha(t') A(u, u - t'), uniformly averaged over
    `states`, each its excited probability p; one state is (p,).

    E is the full shifted splitting omega + c(t), sampled at cell midpoints
    (see accumulated_phase).  Writing A in its factored form turns the inner
    integral into p^2 w e^{i Phi(u)} j(u) with
    j(u) = int_0^u e^{-cutoff (u-s) - i Phi(s)} ds, which is accumulated by
    an exponentially weighted trapezoid recursion, so the whole curve costs
    O(n) and the recursion runs once whatever the number of states.  Stable
    for any cutoff because the growing exponential is never formed.
    A state's factor exp(-exponent) that underflows to 0 or is nan marks a
    bath too strong for the expansion: NumericOverflowError at its first node.
    """
    dt = grid.dt
    phase = accumulated_phase(E, grid)
    decay = float(np.exp(-bath.cutoff * dt))
    emi = np.exp(-1j * phase).tolist()
    half = 0.5 * dt
    # scalar recursion on Python complex: numpy's arithmetic, without its per-scalar cost
    j_k = 0j
    j = [j_k]
    for emi_k, emi_next in zip(emi, emi[1:]):
        j_k = decay * j_k + half * (decay * emi_k + emi_next)
        j.append(j_k)
    j = np.array(j)
    p = np.array(states, dtype=float)
    # one row per state; p^2 multiplies before the quadrature, so each row is
    # bitwise the curve of that state alone
    inner = (p[:, None] ** 2 * bath.weight) * np.exp(1j * phase) * j
    exponent = 2.0 * running_trapezoid(np.real(inner), dt)
    factors = np.exp(-exponent)
    bad = ~(factors > 0.0).all(axis=0)  # nan compares false
    if bad.any():
        raise NumericOverflowError(f"Born factor exp(-exponent) is not a positive float at t = "
                                   f"{grid.times[np.argmax(bad)]:.6g}; the second-order "
                                   "expansion does not hold there")
    return FidelityCurve(grid, np.mean(factors, axis=0))


class BornTrajectory(MemoryTrajectory):
    """MemoryTrajectory with the Born fidelity in place of the exact one.

    A memory-me2 run is one trajectory, so block(ks) runs the trajectories
    one at a time.
    """

    rows = ("me2",)

    def __call__(self, k: int) -> np.ndarray:
        curve = me2_fidelity(self.states, self.splitting(k), self.bath, self.grid)
        return curve.values[np.newaxis]

    def block(self, ks: Sequence[int]) -> np.ndarray:
        return stack_trajectories(self, ks)
