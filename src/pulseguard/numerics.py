"""Fixed-step integration kernels shared by every solver in the package.

Everything here is deliberately plain: uniform grids, classical RK4, composite
trapezoid sums, and a predictor-corrector scheme for Volterra integro-
differential equations.  Fixed steps keep runs bit-reproducible, which the
rest of the package relies on.  The Volterra solver takes a separable kernel
g(t, s) = u(t) v(s) as its two node arrays, so it costs O(n), and it returns
the memory integral alongside the solution so that callers needing it (the
adiabaticity defect) do not run a second pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NumericOverflowError",
    "TimeGrid",
    "rk4_step",
    "running_trapezoid",
    "volterra_solve",
]


class NumericOverflowError(RuntimeError):
    """Raised when an integration produces non-finite or runaway values."""


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

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """Grid nodes, length n_steps + 1."""
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def midpoints(self) -> np.ndarray:
        """Cell midpoints, length n_steps."""
        return (np.arange(self.n_steps) + 0.5) * self.dt


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


def _node_values(values, grid: TimeGrid, name: str) -> list:
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n_steps + 1,):
        raise ValueError(
            f"{name} must have shape ({grid.n_steps + 1},), got {values.shape}"
        )
    return values.tolist()


def volterra_solve(
    u: np.ndarray,
    v: np.ndarray,
    grid: TimeGrid,
    y0: complex,
    local_rate: Optional[np.ndarray] = None,
    overflow_limit: float = 1.0e6,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve dy/dt = a(t) y - int_0^t g(t, s) y(s) ds for g(t, s) = u(t) v(s).

    u, v and local_rate (a(t); None means zero) are sampled on the grid
    nodes.  The memory integral is a composite trapezoid over the solution
    history and each step is a Heun predictor-corrector, so the scheme is
    globally second order.  Because the kernel separates, the history enters
    only through the running sum S_i = sum_{j<=i} v_j y_j, so each step costs
    O(1) and the whole solve O(n).

    Returns (y, memory) with memory[i] the trapezoid int_0^{t_i} g(t_i, s)
    y(s) ds on the final solution; memory[0] = 0.

    Raises NumericOverflowError as soon as |y| exceeds overflow_limit,
    reporting the time at which the solution ran away.
    """
    n = grid.n_steps
    dt = grid.dt
    # Python complex arithmetic on lists is several times faster per step
    # than numpy scalar arithmetic, and this loop is all scalar work
    u = _node_values(u, grid, "u")
    v = _node_values(v, grid, "v")
    if local_rate is None:
        a = [0.0] * (n + 1)
    else:
        a = _node_values(local_rate, grid, "local_rate")

    y = [0j] * (n + 1)
    memory = [0j] * (n + 1)
    y_i = complex(y0)
    y[0] = y_i
    head = 0.5 * v[0] * y_i
    total = v[0] * y_i  # S_i
    for i in range(n):
        # mem_0 is an empty integral; the formula gives it exactly
        mem_i = u[i] * dt * (total - head - 0.5 * v[i] * y_i)
        memory[i] = mem_i
        f_i = a[i] * y_i - mem_i

        y_pred = y_i + dt * f_i
        # history keeps full weight on the last known point; the new
        # endpoint enters with the predictor value and trapezoid weight 1/2
        mem_next = u[i + 1] * dt * (total - head + 0.5 * v[i + 1] * y_pred)
        f_next = a[i + 1] * y_pred - mem_next
        y_i = y_i + 0.5 * dt * (f_i + f_next)

        # the negated comparison also catches nan
        if not abs(y_i) <= overflow_limit:
            raise NumericOverflowError(
                f"Volterra solution exceeded {overflow_limit:g} at t = {(i + 1) * dt:.6g}"
            )
        y[i + 1] = y_i
        total += v[i + 1] * y_i
    memory[n] = u[n] * dt * (total - head - 0.5 * v[n] * y_i)
    return np.array(y, dtype=complex), np.array(memory, dtype=complex)
