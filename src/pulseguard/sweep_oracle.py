"""Verification-only views of the sweep: the gauge-fixed eigenframe.

Nothing on the production path uses this module.  The tests use it to check
the analytic geometric couplings behind the separable kernel in
adiabatic._kernel_factors against centered finite differences of the
diagonalised Hamiltonian, and to reassemble lab-frame states from the
two-component oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adiabatic import _CLAMP_FRACTION, SweepSpec, _clamped_control
from .numerics import TimeGrid
from .signals import SampledSignal

__all__ = [
    "EigenFrame",
    "eigensystem",
    "build_eigen_frame",
    "geometric_couplings",
    "finite_difference_couplings",
]


@dataclass(frozen=True)
class EigenFrame:
    """Instantaneous eigensystem on the grid nodes, in a continuous real gauge.

    energies[:, n] is E_n with E_0 <= E_1; gap = E_0 - E_1 (signed, negative
    throughout); vectors[k, :, n] is |E_n(t_k)>.  Eigenvectors do not depend
    on the control because c(t) multiplies the whole Hamiltonian.
    """

    sweep: SweepSpec
    grid: TimeGrid
    energies: np.ndarray
    gap: np.ndarray
    mixing_angle: np.ndarray
    vectors: np.ndarray


def _gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """Fix eigenvector signs: anchor the first frame, then keep consecutive
    overlaps positive along the grid."""
    fixed = vectors.copy()
    for n in range(fixed.shape[2]):
        anchor = fixed[0, :, n]
        if anchor[np.argmax(np.abs(anchor))] < 0.0:
            fixed[0, :, n] = -anchor
    overlaps = np.einsum("kin,kin->kn", fixed[:-1], fixed[1:])
    flips = np.cumprod(np.where(overlaps < 0.0, -1.0, 1.0), axis=0)
    fixed[1:] *= flips[:, None, :]
    return fixed


def build_eigen_frame(
    sweep: SweepSpec, control: Optional[SampledSignal], grid: TimeGrid
) -> EigenFrame:
    """Diagonalize H(t) at every node and fix the gauge.

    The node value of a piecewise-constant control is taken from the cell to
    its right (the final node reuses the last cell).
    """
    kappa_cells = _clamped_control(sweep, control, grid)
    kappa_nodes = np.append(kappa_cells, kappa_cells[-1])
    times = grid.times
    s = times / sweep.passage_time
    h = np.zeros((grid.n_steps + 1, 2, 2))
    h[:, 0, 0] = 1.0 - s
    h[:, 1, 1] = -(1.0 - s)
    h[:, 0, 1] = s
    h[:, 1, 0] = s
    h *= kappa_nodes[:, None, None]
    energies, vectors = np.linalg.eigh(h)
    gap = energies[:, 0] - energies[:, 1]
    if np.max(gap) > -1.0e-9:
        raise ValueError("eigenvalue gap closed; control must keep omega + c positive")
    return EigenFrame(
        sweep=sweep,
        grid=grid,
        energies=energies,
        gap=gap,
        mixing_angle=sweep.mixing_angle(times),
        vectors=_gauge_fix(vectors),
    )


def eigensystem(
    t: float, sweep: SweepSpec, control=None
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point eigensystem: (energies [E0, E1], vectors [:, n] = |E_n>).

    control may be None, a plain number, or a SampledSignal (the value is
    read from the cell containing t).  Vectors follow the same real-gauge
    convention as build_eigen_frame's anchor (dominant component positive).
    """
    if control is None:
        c = 0.0
    elif isinstance(control, SampledSignal):
        idx = min(int(t / control.grid.dt), control.grid.n_steps - 1)
        c = float(control.values[idx])
    else:
        c = float(control)
    kappa = sweep.base_freq + max(c, _CLAMP_FRACTION * sweep.base_freq)
    if not kappa > 0.0:
        raise ValueError("omega + c must stay positive")
    s = t / sweep.passage_time
    h = kappa * np.array([[1.0 - s, s], [s, -(1.0 - s)]])
    energies, vectors = np.linalg.eigh(h)
    if abs(energies[1] - energies[0]) < 1.0e-9:
        raise ValueError(f"degenerate gap at t = {t!r}")
    for n in range(2):
        if vectors[np.argmax(np.abs(vectors[:, n])), n] < 0.0:
            vectors[:, n] = -vectors[:, n]
    return energies, vectors


def geometric_couplings(frame: EigenFrame) -> np.ndarray:
    """<E_m | dE_n> on the nodes, shape (n+1, 2, 2), from the analytic angle.

    In the real gauge the diagonal entries vanish and the off-diagonal pair
    is antisymmetric: <E0|dE1> = thetadot/2 = -<E1|dE0>.
    """
    half = 0.5 * frame.sweep.angle_velocity(frame.grid.times)
    out = np.zeros((frame.grid.n_steps + 1, 2, 2))
    out[:, 0, 1] = half
    out[:, 1, 0] = -half
    return out


def finite_difference_couplings(frame: EigenFrame) -> np.ndarray:
    """Centered-difference <E_m | dE_n>, second-order one-sided at the ends.

    Pure cross-check for the analytic form; never used by the solvers.
    """
    v = frame.vectors
    dt = frame.grid.dt
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    dv[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return np.einsum("kim,kin->kmn", v, dv)
