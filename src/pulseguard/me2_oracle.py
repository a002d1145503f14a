"""The Born leakage kernel A(t, s) as an object, for verification only.

me2 integrates its factored form directly; the tests check this form against
brute-force 2x2 operator algebra and against me2's integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .me2 import accumulated_phase
from .numerics import TimeGrid
from .qsd import InitialState

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
    amplitude: float  # |mu|^4
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


def leakage_kernel(state: InitialState, E: np.ndarray, grid: TimeGrid) -> LeakageKernel:
    """Build A(t, s) for the surviving zero-temperature channel.

    The closed form |mu|^4 e^{i(Phi(t)-Phi(s))} follows from
    <sig+(t) sig-(s)> = |mu|^2 e^{i(Phi(t)-Phi(s))} and
    <sig+(t)><sig-(s)> = |mu|^2 |nu|^2 e^{i(Phi(t)-Phi(s))}; the modulus is
    phase-independent and vanishes when the excited amplitude does.
    """
    p = state.p_excited
    return LeakageKernel(grid, p * p, accumulated_phase(E, grid))
