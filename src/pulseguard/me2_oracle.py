"""The Born leakage kernel A(t, s) as an object, for verification only.

me2 integrates its factored form directly; the tests check this form against
brute-force 2x2 operator algebra and against me2's integrals.  As in me2,
the initial state mu|1> + nu|0> enters only through p = |mu|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .me2 import accumulated_phase
from .numerics import TimeGrid

__all__ = ["LeakageKernel", "leakage_kernel"]


@dataclass(frozen=True)
class LeakageKernel:
    """Connected two-time kernel A(t, s) for s <= t.

    Stored in factored form (one amplitude, one phase array) because the
    kernel of this model is rank one; `triangle` materialises the dense
    lower-triangular block when a small grid makes that affordable.
    K(t, t) = amplitude is real and nonnegative.
    """

    grid: TimeGrid
    amplitude: float  # p^2
    phase: np.ndarray  # Phi on the grid nodes

    def value(self, t_index: int, s_index: int) -> complex:
        if s_index > t_index:
            raise ValueError("kernel is defined for s <= t only")
        return self.amplitude * np.exp(1j * (self.phase[t_index] - self.phase[s_index]))

    def row(self, t_index: int) -> np.ndarray:
        """K(t_i, s_j) for all j <= t_index."""
        return self.amplitude * np.exp(
            1j * (self.phase[t_index] - self.phase[: t_index + 1])
        )

    def triangle(self) -> np.ndarray:
        """Dense (n+1, n+1) array with zeros above the diagonal."""
        diff = self.phase[:, None] - self.phase[None, :]
        return np.tril(self.amplitude * np.exp(1j * diff))


def leakage_kernel(p: float, E: np.ndarray, grid: TimeGrid) -> LeakageKernel:
    """Build A(t, s) for the surviving zero-temperature channel, p = |mu|^2.

    The closed form p^2 e^{i(Phi(t)-Phi(s))} follows from
    <sig+(t) sig-(s)> = |mu|^2 e^{i(Phi(t)-Phi(s))} and
    <sig+(t)><sig-(s)> = |mu|^2 |nu|^2 e^{i(Phi(t)-Phi(s))} with
    |nu|^2 = 1 - p; the modulus is phase-independent and vanishes when the
    excited amplitude does.
    """
    return LeakageKernel(grid, p * p, accumulated_phase(E, grid))
