"""Exact noise-averaged fidelity of a dissipative qubit under fast control.

The whole memory effect of the bath is carried by one complex kernel

    F(t) = int_0^t ds alpha(t, s) f(t, s),
    d/dt f(t, s) = [i E(t) + F(t)] f(t, s),   f(s, s) = 1,

with E(t) = omega + c(t) the control-shifted splitting.  Because the
correlation is exponential, F obeys a closed Riccati equation

    dF/dt = coupling*cutoff/2 + (i E(t) + F(t) - cutoff) * F(t),  F(0) = 0.

E is constant in each grid cell, where the substitution F = -z'/z makes the
equation linear and one cell's solution an exact Moebius map of F; the
production path composes those maps as a scan, so it has no time-step
error.  An O(n^2) quadrature solver that never forms the Riccati equation
is kept alongside as a cross-method oracle.

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
from .numerics import NumericOverflowError, TimeGrid, running_trapezoid

__all__ = [
    "DEFAULT_STATES",
    "KernelCurve",
    "FidelityCurve",
    "solve_kernel_riccati",
    "solve_kernel_quadrature",
    "qsd_fidelity",
]

_KERNEL_BOUND = 1.0e6

# cells per chunk of the kernel scan; the kernel depends on it at the
# rounding level, and not on the batch length
_CHUNK = 100

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
        values = self.grid.on_nodes(self.values, "kernel", complex, batched=True)
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
        values = self.grid.on_nodes(self.values, "fidelity")
        if not np.all(np.isfinite(values)):
            raise ValueError("fidelity values must be finite")
        if abs(values[0] - 1.0) > 1.0e-9:
            raise ValueError(f"fidelity must start at 1, got {values[0]!r}")
        object.__setattr__(self, "values", values)


def solve_kernel_riccati(E: np.ndarray, bath: BathSpec, grid: TimeGrid) -> KernelCurve:
    """Solve the closed kernel equation exactly in each cell, as a scan of Moebius maps.

    E is the control-shifted splitting from effective_frequency, constant
    inside each grid cell (midpoint sample).  With r = i E - cutoff and
    w = bath.weight, the substitution F = -z'/z turns the Riccati equation
    into z'' - r z' + w z = 0, which one cell solves exactly (Reid 1972):
    with delta = sqrt(r^2/4 - w), C = cosh(delta dt) and
    S = sinh(delta dt) / delta (S = dt at delta = 0), the cell maps

        F  ->  (d F - c) / (a - b F),
        a = C - r S/2,  b = S,  c = -w S,  d = C + r S/2,

    so the kernel carries no time-step error, only rounding.  The maps
    compose as 2x2 matrices, and the solve is a two-level scan (Blelloch
    1990) over chunks of _CHUNK cells, each pass vectorised over rows and
    chunks: pass 1 multiplies the maps of each chunk, pass 2 carries F
    across the chunk ends, and pass 3 applies each chunk's maps one by one
    from its start value, writing F into the output and checking each
    cell.  No pass holds a map per cell: the block's distinct levels of E
    get one map each, in one table that the cells of every row index.

    E holds one drive, shape (n_steps,), or a batch of B drives, shape
    (B, n_steps), and the kernel has the matching shape (n_steps + 1,) or
    (B, n_steps + 1).  Every operation is elementwise over the rows, so a
    row's kernel is bit for bit the same in a batch of any length.
    NumericOverflowError is raised at the first node after a cell that the
    grid does not resolve (see _scan: a pole of F where E = 0, Re F of
    about 1/dt or more otherwise), or where |F| exceeds the kernel bound or
    F is not finite, in the first such row, which the error's `row` names
    (0 for one drive).
    """
    E = grid.on_cells(E, "E", batched=True)
    n = grid.n_steps
    maps, cells = _cell_maps(E.reshape(-1, n), bath, grid)
    values, good = _scan(maps, cells, n)
    chunk = cells.shape[2]
    bad = np.argwhere(good < chunk)
    if len(bad):
        row, j = bad[0]  # the first row with a bad cell, then its first such chunk
        node = j * chunk + good[row, j] + 1
        raise NumericOverflowError(
            f"memory kernel diverged at t = {grid.times[node]:.6g}", int(row)
        )
    return KernelCurve(grid, values.reshape(E.shape[:-1] + (n + 1,)))


def _cell_maps(E: np.ndarray, bath: BathSpec, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The cell maps of the (B, n_steps) drives E, as a table and an index.

    Each map is held as I + D, with D = (a - 1, b, c, d - 1) taken from
    C - 1 = 2 sinh^2(delta dt / 2), so that the identity stays out of the
    rounding of the O(dt) entries.  The table is (4, U + 1): the D of the
    U distinct levels of the whole block, then D = 0.  The index is
    (B, chunks, chunk) int32, each cell's column of the table, padded with
    the identity up to whole chunks of min(_CHUNK, n_steps) cells.
    """
    n = grid.n_steps
    chunk = min(_CHUNK, n)
    # E runs in constant stretches, so one level per stretch is de-duplicated
    starts = np.empty(E.shape, dtype=bool)
    starts[:, 0] = True
    np.not_equal(E[:, 1:], E[:, :-1], out=starts[:, 1:])
    level, inverse = np.unique(E[starts], return_inverse=True)
    cells = np.zeros((len(E), -(-n // chunk), chunk), dtype=np.int32)
    flat = cells.reshape(len(E), -1)
    # each stretch's first cell holds its column less that of the stretch
    # before it in the block, every other cell 0, so a running sum over the
    # block gives every cell its column, in place
    flat[:, :n][starts] = np.diff(inverse, prepend=0)
    np.cumsum(cells, dtype=np.int32, out=cells.reshape(-1))
    flat[:, n:] = len(level)
    r = 1j * level - bath.cutoff
    maps = np.zeros((4, len(level) + 1), dtype=complex)
    # an overflow here leaves a non-finite map, and the scan reports its cell
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = np.sqrt(0.25 * r * r - bath.weight)
        S = np.sinh(grid.dt * delta) / delta
        S[delta == 0.0] = grid.dt
        C1 = 2.0 * np.sinh(0.5 * grid.dt * delta) ** 2
        half = 0.5 * r * S
        maps[:, :-1] = (C1 - half, S, -bath.weight * S, C1 + half)
        # a cell far longer than the memory time has entries ~ e^{cutoff dt / 2};
        # dividing such an I + D by its largest entry leaves F's map unchanged
        # and keeps every product of _CHUNK maps below 2 * 4**(_CHUNK - 1)
        eye = np.array([[1.0], [0.0], [0.0], [1.0]])
        scale = np.abs(maps + eye).max(axis=0)
        big = scale > 2.0
        maps[:, big] = (maps[:, big] + eye) / scale[big] - eye
    return maps, cells


def _scan(maps: np.ndarray, cells: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernels F, shape (B, n + 1), of the cell maps indexed by `cells`,
    shape (B, chunks, chunk), and how many good cells lead each chunk.

    A map I + D takes F to F + (F (D3 - D0 + D1 F) - D2) / (1 + x), with
    x = D0 - D1 F, and a product (I + D)(I + Q) is I + D + Q + D Q.

    Pass 3 marks cell k bad where Re x <= -1, that is Re(a - b F_k) <= 0,
    or where |F| after it exceeds the kernel bound or is nan.  In the cell,
    z = exp(-int F) scales by exp(r dt/2) (a - b F_k), with
    a - b F_k = 1 + x ~ 1 - dt F_k, so the first rule fires when that factor turns by more than 90 degrees, which
    in practice means Re F_k is about 1/dt or more.  Where E = 0 the maps,
    F and z are real, and the rule means z turned through zero inside the
    cell: F is past a pole from node k + 1 on.  For complex z, which
    generically never reaches zero, it is a threshold, not a pole: the
    exact maps would carry F on, but no longer on a grid that resolves it.
    At a chunk's first cell, x is formed from the start value that pass 2
    carried, the value the map is applied to; the previous chunk's last
    node agrees with it to rounding.

    Returns a view of a (B, chunks * chunk + 1) buffer, in which F runs on
    past a bad cell, and the (B, chunks) int32 count of the cells before
    each chunk's first bad one (chunk if none).  The identity cells that
    pad the last chunk keep a good F good, so none is a row's first bad one.
    """
    rows, chunks, chunk = cells.shape
    out = np.empty((rows, chunks * chunk + 1), dtype=complex)
    out[:, 0] = 0.0
    nodes = out[:, 1:].reshape(cells.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # pass 1: each chunk's product of maps, I + Q, the later map on the left
        Q0, Q1, Q2, Q3 = maps.take(cells[:, :, 0], axis=1)
        for k in range(1, chunk):
            D0, D1, D2, D3 = maps.take(cells[:, :, k], axis=1)
            Q0, Q1, Q2, Q3 = (
                D0 + Q0 + (D0 * Q0 + D1 * Q2),
                D1 + Q1 + (D0 * Q1 + D1 * Q3),
                D2 + Q2 + (D2 * Q0 + D3 * Q2),
                D3 + Q3 + (D2 * Q1 + D3 * Q3),
            )
        Q = np.stack((Q0, Q1, Q2, Q3))
        # pass 2: F at each chunk's start
        F = np.zeros((rows, chunks), dtype=complex)
        for j in range(1, chunks):
            F[:, j] = _advance(Q[:, :, j - 1], F[:, j - 1])[0]
        # pass 3: each chunk's maps one by one from its start
        ok = np.ones((rows, chunks), dtype=bool)
        good = np.zeros((rows, chunks), dtype=np.int32)
        for k in range(chunk):
            F, x = _advance(maps.take(cells[:, :, k], axis=1), F)
            nodes[:, :, k] = F
            # a nan compares false, so it is bad
            ok &= (x.real > -1.0) & (np.abs(F) <= _KERNEL_BOUND)
            good += ok
    return out[:, : n + 1], good


def _advance(D: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F after the maps I + D, D = (D0, D1, D2, D3) stacked on the first
    axis, and x = D0 - D1 F, so that 1 + x is the maps' a - b F."""
    D0, D1, D2, D3 = D
    D1F = D1 * F
    x = D0 - D1F
    return F + (F * (D3 - D0 + D1F) - D2) / (1.0 + x), x


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
    drive = 1j * grid.on_cells(E, "E")
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

