"""Fixed-step integration kernels shared by every solver in the package.

Everything here is deliberately plain: uniform grids, classical RK4, composite
trapezoid sums, and a predictor-corrector scheme for Volterra integro-
differential equations.  Fixed steps keep runs bit-reproducible, which the
rest of the package relies on.  The Volterra solver takes the one equation
the sweep needs, with no local term and a fixed runaway limit of 1e6, and a
separable kernel g(t, s) = u(t) v(s) as its two node arrays, which makes
each step a linear 2x2 map; it solves by a work-efficient prefix scan of
those maps (an up-sweep and a down-sweep through ceil(log2 n) levels, about
n map products and n matrix-vector products) over whole arrays, with no
per-step Python loop, and it returns the memory integral alongside the
solution so that callers needing it (the adiabaticity defect) do not run a
second pass.

TimeGrid owns the package's one data format: a control is one midpoint
sample per cell, shape (n_steps,), and a curve is one value per node, shape
(n_steps + 1,).  No other module checks a shape; each calls on_cells or
on_nodes, which name the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "NumericOverflowError",
    "TimeGrid",
    "rk4_step",
    "running_trapezoid",
    "volterra_solve",
]


class NumericOverflowError(RuntimeError):
    """Raised when an integration produces non-finite or runaway values.

    `row` is the failing row of a batched integration, 0 for a single one.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, t_max] with n_steps cells.

    Nodes live at k*dt for k = 0..n_steps; midpoints at (k + 1/2)*dt.
    Piecewise-constant signals are sampled at the midpoints so that a pulse
    edge falling exactly on a node never produces an ambiguous sample.
    """

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0 and np.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.dt > 0.0:
            raise ValueError(
                f"t_max / n_steps underflows to dt = {self.dt!r}; the nodes would coincide"
            )

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """Grid nodes, length n_steps + 1."""
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def midpoints(self) -> np.ndarray:
        """Cell midpoints, length n_steps; one read-only array per grid."""
        return _midpoints(self)

    def on_cells(self, values, name: str, dtype=float, batched: bool = False) -> np.ndarray:
        """`values` as an array of shape (n_steps,), or (B, n_steps) if batched."""
        return _sampled(values, name, dtype, batched, self.n_steps, "one midpoint sample per cell")

    def on_nodes(self, values, name: str, dtype=float, batched: bool = False) -> np.ndarray:
        """`values` as an array of shape (n_steps + 1,), or (B, n_steps + 1) if batched."""
        return _sampled(values, name, dtype, batched, self.n_steps + 1, "one value per node")


@lru_cache(maxsize=8)
def _midpoints(grid: TimeGrid) -> np.ndarray:
    # cached beside the grid, not on it, so that a pickled config stays small
    t = (np.arange(grid.n_steps) + 0.5) * grid.dt
    t.flags.writeable = False
    return t


def _sampled(values, name: str, dtype, batched: bool, n: int, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=dtype)
    if values.ndim not in ((1, 2) if batched else (1,)) or values.shape[-1] != n:
        shape = f"({n},) or (B, {n})" if batched else f"({n},)"
        raise ValueError(f"{name} must have shape {shape}, {what} (length {n}), "
                         f"got {values.shape}")
    return values


def rk4_step(derivative: Callable, t: float, y, dt: float):
    """One classical Runge-Kutta step for dy/dt = derivative(t, y).

    y may be a scalar or an ndarray; the result has the same shape.  A
    non-finite result means the integration is diverging and is reported as
    NumericOverflowError rather than silently propagated.
    """
    k1 = derivative(t, y)
    k2 = derivative(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = derivative(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = derivative(t + dt, y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError(f"non-finite value in RK4 step at t = {t!r}")
    return out


def running_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral along the last axis; output[..., 0] = 0."""
    values = np.asarray(values)
    out = np.zeros_like(values, dtype=np.result_type(values.dtype, float))
    np.cumsum(0.5 * dt * (values[..., 1:] + values[..., :-1]), axis=-1, out=out[..., 1:])
    return out


# |y| past this is a runaway solution; the sweep's |psi_0| stays near 1
_OVERFLOW_LIMIT = 1.0e6


def volterra_solve(
    u: np.ndarray, v: np.ndarray, grid: TimeGrid, y0: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Solve dy/dt = - int_0^t g(t, s) y(s) ds for g(t, s) = u(t) v(s).

    u and v are sampled on the grid nodes.  The memory integral is a
    composite trapezoid over the solution history and each step is a Heun
    predictor-corrector, so the scheme is globally second order.  Because
    the kernel separates, the history enters only through the running sum
    S_i = sum_{j<=i} v_j y_j, and with T_i = S_i - v_0 y_0 / 2 one step maps
    (y_i, T_i) linearly to (y_{i+1}, T_{i+1}).  The solve is the prefix
    product of those n 2x2 maps, taken over whole node arrays as a
    work-efficient scan (Blelloch 1990).  The up-sweep composes neighbouring
    maps level by level, n - 1 map products in all; the down-sweep carries
    (y, T) back down the levels, one matrix-vector product for each odd
    prefix, about n in all (4999 and 5006 at n = 5000).  Each map is held
    as I + D, composed as D_c + D_b + D_c D_b and applied as x + D x, which
    keeps the identity out of the rounding.  The products are summed in
    tree order, so the result matches the step-by-step recurrence to
    rounding (within 1e-14 on fig4's sweeps).  Against that recurrence in
    extended precision, on fig4's sweeps at 5e3 steps, the scan errs by
    2.6e-16 to 3.0e-16 and the float64 recurrence by 1.9e-15 to 6.5e-15.

    Returns (y, memory) with memory[i] the trapezoid int_0^{t_i} g(t_i, s)
    y(s) ds on the final solution; memory[0] = 0.

    Raises NumericOverflowError at the first node where |y| exceeds 1e6 or
    is not finite, reporting the time at which the solution ran away; node
    i depends only on the maps before it, so a later blow-up cannot move
    that node.
    """
    dt = grid.dt
    u = grid.on_nodes(u, "u", complex)
    v = grid.on_nodes(v, "v", complex)
    y0 = complex(y0)
    t0 = 0.5 * v[0] * y0  # T_0

    with np.errstate(over="ignore", invalid="ignore"):
        U = dt * u
        y, total = _prefix_scan(U, v, dt, y0, t0)
        # the negated comparison also catches nan
        runaway = ~(np.abs(y[1:]) <= _OVERFLOW_LIMIT)
        memory = U * (total - 0.5 * v * y)
        memory[0] = 0.0  # an empty integral, whatever the rounding of T_0
    if runaway.any():
        node = int(np.argmax(runaway)) + 1
        raise NumericOverflowError(
            f"Volterra solution exceeded {_OVERFLOW_LIMIT:g} at t = {node * dt:.6g}"
        )
    # y is a row of the scan's state buffer; a copy keeps the rest from living on
    return y.copy(), memory


def _prefix_scan(U: np.ndarray, v: np.ndarray, dt: float, y0: complex, t0: complex) -> np.ndarray:
    """(y, T) on every node, shape (2, n + 1), by an up-sweep and a down-sweep.

    Level k of the scan holds sizes[k] maps, each the product of up to 2**k
    steps, and the states after its first 0..sizes[k] maps, so that
    state[:, j] is (y, T) after j of them.  The levels share one buffer for
    their maps and one for their states, each level contiguous in it.  The
    steps' temporaries go before the states are made and the maps go when
    this returns, so the peak memory is about the maps and the states.
    """
    sizes = [len(v) - 1]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    maps = np.empty(4 * sum(sizes), dtype=complex)
    levels = []
    for size in sizes:
        level, maps = maps[: 4 * size], maps[4 * size :]
        levels.append(level.reshape(2, 2, size))

    _steps(levels[0], U, v, dt)
    # up-sweep: each map of a level composes two neighbours below it, the
    # later on the left; at an odd length the last map goes up alone
    for lower, upper in zip(levels, levels[1:]):
        pairs = lower.shape[2] // 2
        later, earlier = lower[:, :, 1 : 2 * pairs : 2], lower[:, :, : 2 * pairs : 2]
        step = upper[:, :, :pairs]
        np.add(later, earlier, out=step)
        step += later[:, :1] * earlier[:1]
        step += later[:, 1:] * earlier[1:]
        if lower.shape[2] % 2:
            upper[:, :, -1] = lower[:, :, -1]

    # down-sweep: an even prefix of a level is a prefix of the level above,
    # and an odd one is the level above's prefix before it carried through
    # one map, so prefix j composes only the maps before j
    states = np.empty(2 * (sum(sizes) + len(sizes)), dtype=complex)
    above = np.array([[y0], [t0]])  # the top level's one map acts on (y_0, T_0)
    for level in levels[::-1]:
        size = level.shape[2]
        state, states = states[: 2 * size + 2].reshape(2, size + 1), states[2 * size + 2 :]
        state[:, 0] = above[:, 0]
        state[:, 2::2] = above[:, 1 : 1 + size // 2]
        x = above[:, : (size + 1) // 2]
        carried = state[:, 1::2]
        first = level[:, :, ::2]
        np.multiply(first[:, 0], x[0], out=carried)
        carried += first[:, 1] * x[1]
        carried += x
        above = state
    return above


def _steps(d: np.ndarray, U: np.ndarray, v: np.ndarray, dt: float) -> None:
    """Write step i of the Heun scheme as I + d[:, :, i] acting on (y_i, T_i)."""
    # f = p y - U T before the step and f = r y_pred - U T after it, with
    # the trapezoid's endpoint weight folded into p and r
    w = 0.5 * U * v
    p = w[:-1]
    r = -w[1:]
    d[0, 0] = 0.5 * dt * (p + r * (1.0 + dt * p))
    d[0, 1] = -0.5 * dt * (U[:-1] * (1.0 + dt * r) + U[1:])
    d[1, 0] = v[1:] * (1.0 + d[0, 0])
    d[1, 1] = v[1:] * d[0, 1]
