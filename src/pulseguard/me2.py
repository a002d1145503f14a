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
kernel, so a state is its excited probability p, and the exponent is one
state-independent curve X(t) formed once per signal: a state's factor is
exp(-p^2 X), and a uniform average over states adds one exponential per
state and node.  The one recursion in X, an exponentially decayed running
sum, is summed as a two-level scan over chunks of _CHUNK cells, so no
Python loop runs per cell.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bath import BathSpec
from .numerics import NumericOverflowError, TimeGrid, running_trapezoid
from .qsd import FidelityCurve, _check_states

# cells per chunk of the j(u) scan; the numbers depend on it only by rounding
_CHUNK = 100

__all__ = [
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
    `states`, each its excited probability p in [0, 1]; one state is (p,),
    and an empty or out-of-range `states` is a ValueError.

    E is the full shifted splitting omega + c(t), sampled at cell midpoints
    (see accumulated_phase).  A state's factor that underflows to 0 or is
    nan marks a bath too strong for the expansion: NumericOverflowError at
    its first node.
    """
    factors = _born_factors(_check_states(states), E, bath, grid)
    bad = ~(factors > 0.0).all(axis=0)  # nan compares false
    if bad.any():
        raise NumericOverflowError(f"Born factor exp(-exponent) is not a positive float at t = "
                                   f"{grid.times[np.argmax(bad)]:.6g}; the second-order "
                                   "expansion does not hold there")
    return FidelityCurve(grid, np.mean(factors, axis=0))


def _born_factors(
    states: Sequence[float], E: np.ndarray, bath: BathSpec, grid: TimeGrid
) -> np.ndarray:
    """Each state's Born factor exp(-p^2 X), shape (len(states), n_steps + 1).

    Writing A in its factored form turns the inner integral into
    p^2 w e^{i Phi(u)} j(u) with j(u) = int_0^u e^{-cutoff (u-s) - i Phi(s)} ds,
    which an exponentially weighted trapezoid rule advances cell by cell as
    j_{k+1} = decay j_k + b_k, decay = e^{-cutoff dt}; _decayed_sum sums
    that recursion.  The exponent X(t) = 2 int_0^t w Re(e^{i Phi} j) does
    not depend on the state and is formed once.  Stable for any cutoff
    because the growing exponential is never formed.  A row is computed
    elementwise from X, so it is bit for bit the curve of its state alone,
    and a state with p = 0 has the factor 1 exactly, even where X overflows.
    """
    dt = grid.dt
    emi = np.exp(-1j * accumulated_phase(E, grid))
    decay = float(np.exp(-bath.cutoff * dt))
    j = _decayed_sum(0.5 * dt * (decay * emi[:-1] + emi[1:]), decay)
    p2 = np.array(states, dtype=float) ** 2
    # an X that overflows gives a factor 0, which me2_fidelity reports
    with np.errstate(over="ignore", invalid="ignore"):
        # Re(e^{i Phi} j) with e^{i Phi} = conj(e^{-i Phi})
        X = 2.0 * running_trapezoid(bath.weight * (emi.real * j.real + emi.imag * j.imag), dt)
        exponent = p2[:, None] * X
    # a state that cannot leak keeps its fidelity, where 0 * inf would be nan
    exponent[p2 == 0.0] = 0.0
    return np.exp(-exponent)


def _decayed_sum(b: np.ndarray, decay: float) -> np.ndarray:
    """j with j_0 = 0 and j_{k+1} = decay j_k + b_k, shape (len(b) + 1,).

    A two-level scan (Blelloch 1990) over chunks of _CHUNK cells: pass 1
    sums each chunk from zero, vectorised over the chunks; pass 2 carries
    j across the chunk ends with the factor decay**chunk; pass 3 adds
    decay**(m + 1) times its chunk's start value to the m-th local sum.
    Every power taken is at most 1, so decay = 0 is exact.
    """
    n = len(b)
    chunk = min(_CHUNK, n)
    chunks = -(-n // chunk)
    # local[m, c] is cell c * chunk + m; the cells past n stay 0
    local = np.zeros((chunk, chunks), dtype=complex)
    local.T.flat[:n] = b
    # pass 1: local[m] is the chunk's sum from zero after its m + 1 cells
    scaled = np.empty(chunks, dtype=complex)
    for m in range(1, chunk):
        np.multiply(local[m - 1], decay, out=scaled)
        local[m] += scaled
    # pass 2: j at each chunk's start
    powers = decay ** np.arange(1, chunk + 1)
    starts = [0j]
    for end in local[-1, :-1].tolist():
        starts.append(powers[-1] * starts[-1] + end)
    # pass 3: add decay**(m + 1) times the chunk's start value
    local += powers[:, None] * np.array(starts)
    return np.concatenate(([0j], local.T.ravel()[:n]))

