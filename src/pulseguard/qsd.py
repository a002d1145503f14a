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
error.  A control holds E constant over runs of cells, as its sampler
builds it, and L cells at one level have the cell map with dt replaced by
L dt, so the scan's first pass multiplies one map per run, not one per
cell; the maps of cells and of runs are the columns of one table.
An O(n^2) quadrature solver that never forms the Riccati equation is kept
alongside as a cross-method oracle.

Given the kernel, the fidelity of an initial state mu|1> + nu|0> follows in
closed form from the running integrals of F:

    F_fid(t) = 1 - p - (p - 2 p^2) e^{-2 Re INT(t)}
               + 2 (p - p^2) Re e^{-INT(t)},      p = |mu|^2,

with INT(t) = int_0^t F(s) ds, and the coherence term is evaluated as

    Re e^{-INT} = e^{-Re INT} cos(Im INT),

one real exponential and one cosine in place of a complex exponential
whose imaginary part would be thrown away.  At t = 0 this is identically
1.  The state enters only through its excited probability p, so a state
is the float p in [0, 1].  The form is affine in (1 - p, p - 2 p^2,
2 (p - p^2)), so an average over states averages those three
coefficients and evaluates the curve once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bath import BathSpec
from .numerics import NumericOverflowError, TimeGrid, running_trapezoid
from .signals import _joined

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


def solve_kernel_riccati(E, bath: BathSpec, grid: TimeGrid) -> KernelCurve:
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
    chunks.  Pass 1 multiplies each chunk's maps, but one per piece, a run
    of E cut at every chunk start, rather than one per cell: a piece of L
    cells at one level has the cell map with dt replaced by L dt.  Pass 2
    carries F across the chunk ends, and pass 3 applies each chunk's cell
    maps one by one from its start value, writing F into the output and
    checking each cell.  No pass holds a map per cell: the runs' levels and
    their pieces get one map each, in one table that every row indexes
    (see _map_table).

    E holds one drive, shape (n_steps,), a batch of B drives, shape
    (B, n_steps), or a batch's runs (level, column, length), as cell values
    are turned into here and signals._effective_runs forms them: run i is
    E = level[column[i]] for length[i] cells, row after row, no two
    neighbours of a row at equal E.  The kernel has shape (n_steps + 1,)
    or (B, n_steps + 1).  Every operation is elementwise over the rows, so
    a row's kernel is bit for bit the same in any batch, from either form.
    NumericOverflowError is raised at the first node after a cell that the
    grid does not resolve (see _scan: a pole of F where E = 0, Re F of
    about 1/dt or more otherwise), or where |F| exceeds the kernel bound or
    F is not finite, in the first such row, which the error's `row` names
    (0 for one drive).
    """
    n = grid.n_steps
    if isinstance(E, tuple):
        runs, shape = E, (-1, n + 1)
    else:  # each row's constant stretches, the only levels numbered by value
        E = grid.on_cells(E, "E", batched=True)
        starts, length = _joined(E.ravel(), np.arange(E.size), None, np.arange(0, E.size, n))
        runs, shape = (*np.unique(E.take(starts), return_inverse=True), length), E.shape[:-1] + (n + 1,)
    # the products are allocated before the table is built, so that the
    # build's temporaries leave one free stretch of heap for the scan's output
    Q = np.empty((4, int(runs[2].sum()) // n, -(-n // min(_CHUNK, n)) - 1), dtype=complex)
    table, maps, cells, index, active = _map_table(runs, bath, grid)
    _chunk_products(Q, table, index, active)
    # pass 3 reads only `maps`, a copy of the cell maps and the identity, so
    # the table is freed before the scan allocates its output; kept, it added
    # ~1.3 MB to the peak RSS of a process that solves fig2's blocks of 20
    del table, index, active
    values, good = _scan(maps, cells, Q, n)
    chunk = cells.shape[2]
    bad = np.argwhere(good < chunk)
    if len(bad):
        row, j = bad[0]  # the first row with a bad cell, then its first such chunk
        node = j * chunk + good[row, j] + 1
        raise NumericOverflowError(
            f"memory kernel diverged at t = {grid.times[node]:.6g}", int(row)
        )
    return KernelCurve(grid, values.reshape(shape))


def _map_table(runs: tuple, bath: BathSpec, grid: TimeGrid) -> tuple:
    """The maps of a block's runs (level, column, length), as
    solve_kernel_riccati takes them, in one table, pass 3's copy of its
    first U + 1 columns and its cell index, and pass 1's piece index and
    mask.

    A piece is a run cut at the starts of the chunks of min(_CHUNK, n_steps)
    cells; a piece of L cells has the cell map held for L dt.  The table is
    (4, U + 1 + M): the I + D (see _span_maps) of the U level ids, the
    identity, then one map per distinct (level id, L) of its pieces of
    L > 1 cells.  Such a piece whose map is not finite or would need
    rescaling becomes L pieces of one cell, so pass 1 multiplies there the
    cell maps; its own map stays in the table, unread.  The int32 indexes
    are (B, chunks, chunk), each cell's column, padded with the identity,
    and (S, B, chunks - 1), the pieces of every chunk but the last, in
    order, padded with the identity up to S, the most of a chunk; the mask
    is true where a slot holds a piece.
    """
    level, column, length = runs
    n = grid.n_steps
    chunk = min(_CHUNK, n)
    chunks = -(-n // chunk)
    identity = len(level)
    start = np.cumsum(length) - length
    rows = start[-1] // n + 1
    start += start // n * (chunks * chunk - n)  # each run's first cell, rows padded to chunks
    # pass 3's maps live through the scan, so they are allocated before the
    # temporaries that follow, which then leave free heap for the scan's output
    maps = np.empty((4, identity + 1), dtype=complex)
    # a piece starts at each run's first cell and at every chunk start inside a run
    cut = np.setdiff1d(np.arange(0, rows * chunks * chunk, chunk), start, assume_unique=True)
    at = np.searchsorted(start, cut)
    start = np.insert(start, at, cut)
    column = np.insert(column, at, column.take(at - 1))
    # a row's last piece runs on over the padding, which then takes the identity
    length = np.diff(start, append=rows * chunks * chunk)
    cells = np.repeat(column.astype(np.int32), length).reshape(rows, chunks, chunk)
    cells[:, -1, n - (chunks - 1) * chunk :] = identity
    # pass 1 reads the pieces of every chunk but the last: their L, column and chunk
    group = start // chunk
    count = np.bincount(group, minlength=rows * chunks).reshape(rows, chunks)[:, :-1].reshape(-1)
    body = group % chunks != chunks - 1
    length, column, group = length[body], column[body], group[body]
    group -= group // chunks
    del start, body
    # one key per (level, L) of more than one cell
    long = length > 1
    at = np.flatnonzero(long)
    key, slot = np.unique(column.take(at) * (chunk + 1) + length.take(at), return_inverse=True)
    # each key's level and L, read from one of its pieces
    piece = np.empty(len(key), dtype=np.intp)
    piece[slot] = at
    table = np.zeros((4, identity + 1 + len(piece)), dtype=complex)
    _span_maps(level, grid.dt, bath, table[:, :identity])
    span = length.take(piece) * grid.dt
    # a map of more than one cell that is not finite or was rescaled
    split = ~(_span_maps(level.take(column.take(piece)), span, bath, table[:, identity + 1 :]) <= 2.0)
    if split.any():
        # a piece whose key splits becomes L pieces of one cell, in its place
        cut = np.zeros(len(length), dtype=bool)
        cut[long] = split.take(slot)
        slot = slot[~split.take(slot)]
        each = np.where(cut, length, 1)
        column, group, long = (np.repeat(a, each) for a in (column, group, long & ~cut))
        count = np.bincount(group, minlength=len(count))
        at = np.flatnonzero(long)
    column[at] = identity + 1 + slot
    del length, long, at, slot
    maps[...] = table[:, : identity + 1]
    # each chunk's pieces in order, then the identity
    depth = count.max(initial=1)
    rank = np.arange(len(group)) - np.repeat(np.cumsum(count) - count, count)
    index = np.full((depth, len(count)), identity, dtype=np.int32)
    index.reshape(-1)[rank * len(count) + group] = column
    active = np.arange(depth)[:, np.newaxis] < count
    shape = (depth, rows, len(count) // rows)
    return table, maps, cells, index.reshape(shape), active.reshape(shape)


def _span_maps(level: np.ndarray, span, bath: BathSpec, out: np.ndarray) -> np.ndarray:
    """Write into `out`, (4, len(level)), the map I + D of each level of E
    held for `span` (a time, or one time per level), and return each map's
    largest entry before rescaling.

    D = (a - 1, b, c, d - 1) is taken from C - 1 = 2 sinh^2(delta span / 2),
    so that the identity stays out of the rounding of the O(span) entries.
    A map whose largest entry exceeds 2 is divided by it, which leaves F's
    map unchanged.
    """
    # an overflow here leaves a non-finite map, and the scan reports its cell
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the formula in solve_kernel_riccati's order of operations, with rows
        # 0 and 3 of `out` as scratch, so that few temporaries are alive at
        # once; numpy multiplies a one-element array in place by another
        # rule, so no product is written over one of its operands
        D0, S, D2, D3 = out
        r = 1j * level - bath.cutoff
        np.multiply(0.25, r, out=D0)
        np.multiply(D0, r, out=D3)
        D3 -= bath.weight
        delta = np.sqrt(D3, out=D3)
        np.multiply(span, delta, out=S)
        np.sinh(S, out=S)
        S /= delta
        zero = delta == 0.0
        S[zero] = np.broadcast_to(span, S.shape)[zero]
        np.multiply(0.5 * span, delta, out=D0)
        np.sinh(D0, out=D0)
        np.square(D0, out=D3)
        C1 = np.multiply(2.0, D3, out=D0)
        half = np.multiply(np.multiply(0.5, r, out=D3), S, out=r)
        np.add(C1, half, out=D3)
        np.subtract(C1, half, out=D0)
        np.multiply(-bath.weight, S, out=D2)
        # a span far longer than the memory time has entries ~ e^{cutoff span / 2};
        # rescaling keeps every product of _CHUNK maps below 2 * 4**(_CHUNK - 1)
        scale = np.abs(np.add(D0, 1.0, out=r))
        size = np.empty_like(scale)
        for entry in (S, D2, np.add(D3, 1.0, out=r)):
            np.maximum(scale, np.abs(entry, out=size), out=scale)
        big = scale > 2.0
        eye = np.array([[1.0], [0.0], [0.0], [1.0]])
        out[:, big] = (out[:, big] + eye) / scale[big] - eye
    return scale


def _chunk_products(Q: np.ndarray, table: np.ndarray, index: np.ndarray, active: np.ndarray) -> None:
    """Pass 1: write into Q, (4, B, chunks - 1), each chunk's product I + Q
    of the piece maps that _map_table indexes, the later map on the left.

    Slot by slot, a chunk's product takes the slot's map only where the mask
    holds.  A padding slot holds the identity, and the mask keeps even that
    out, since I + D + Q + D Q with D = 0 would turn a -0 of Q into +0; so a
    chunk with fewer pieces than the block's most keeps its product bit for
    bit, and a row's products do not depend on its batch.
    """
    # every index is in range, and "clip" skips take's bounds check
    table.take(index[0], axis=1, out=Q, mode="clip")
    D, DQ, term = (np.empty_like(Q) for _ in range(3))
    # as 2x2 matrices of (B, chunks - 1) arrays, (D Q)[i, j] = D[i, 0] Q[0, j] + D[i, 1] Q[1, j]
    d, q, dq, t = (a.reshape((2, 2) + Q.shape[1:]) for a in (D, Q, DQ, term))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, len(index)):
            table.take(index[s], axis=1, out=D, mode="clip")
            # (I + D)(I + Q) = I + D + Q + D Q
            np.multiply(d[:, :1], q[:1], out=dq)
            np.multiply(d[:, 1:], q[1:], out=t)
            DQ += term
            np.add(D, Q, out=term)
            np.add(term, DQ, out=Q, where=active[s])


def _scan(maps: np.ndarray, cells: np.ndarray, Q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernels F, shape (B, n + 1), of the cell maps indexed by `cells`,
    shape (B, chunks, chunk), from the chunk products I + Q of pass 1, and
    how many good cells lead each chunk.

    Pass 2 carries F across the chunk ends through the products, and pass 3
    applies each chunk's cell maps one by one from its start, both by _step,
    through buffers that every step reuses.

    Pass 3 marks cell k bad where Re x <= -1, that is Re(a - b F_k) <= 0,
    or where |F| after it exceeds the kernel bound or is nan.  In the cell,
    z = exp(-int F) scales by exp(r dt/2) (a - b F_k), with
    a - b F_k = 1 + x ~ 1 - dt F_k, so the first rule fires when that
    factor turns by more than 90 degrees, which in practice means Re F_k
    is about 1/dt or more.  Where E = 0 the maps,
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
        # pass 2: F at each chunk's start
        F = np.zeros((rows, chunks), dtype=complex)
        # F runs on in a buffer of its own: numpy cannot rule out that two
        # columns of F overlap, so a step from one into the next is slower
        start, *work = np.zeros((5, rows), dtype=complex)
        for j in range(1, chunks):
            _step(Q[:, :, j - 1], start, work, start)
            F[:, j] = start
        # pass 3: each chunk's maps one by one from its start
        D = np.empty((4, rows, chunks), dtype=complex)
        entries = list(D)  # unpacked once, not at every step
        work = [np.empty_like(F) for _ in range(4)]
        size = np.empty(F.shape)
        ok = np.ones(F.shape, dtype=bool)
        fine = np.empty_like(ok)
        good = np.zeros(F.shape, dtype=np.int32)
        for k in range(chunk):
            maps.take(cells[:, :, k], axis=1, out=D, mode="clip")
            x = _step(entries, F, work, F)
            nodes[:, :, k] = F
            # a nan compares false, so it is bad
            np.greater(x.real, -1.0, out=fine)
            ok &= fine
            np.abs(F, out=size)
            np.less_equal(size, _KERNEL_BOUND, out=fine)
            ok &= fine
            good += ok
    return out[:, : n + 1], good


def _step(D: Sequence, F: np.ndarray, work: Sequence, out: np.ndarray) -> np.ndarray:
    """Write F + (F (D3 - D0 + D1 F) - D2) / (1 + x), F after the maps I + D,
    into `out` through the four buffers `work`, and return x = D0 - D1 F,
    so that 1 + x is the maps' a - b F.  No buffer but `out` is written
    over its own operand: on an array of one element, numpy rounds such a
    product by another rule, and runs any such operation slowly."""
    D0, D1, D2, D3 = D
    D1F, x, u, v = work
    np.multiply(D1, F, out=D1F)
    np.subtract(D0, D1F, out=x)
    np.subtract(D3, D0, out=u)
    np.add(u, D1F, out=v)
    np.multiply(F, v, out=u)
    np.subtract(u, D2, out=v)
    np.add(1.0, x, out=u)
    np.divide(v, u, out=D1F)
    np.add(F, D1F, out=out)
    return x


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

    Each state is its excited probability p in [0, 1]; one state is (p,),
    and an empty or out-of-range `states` is a ValueError.  The curve costs
    one evaluation whatever the number of states.  Bounded inside [0, 1]
    whenever Re int F >= 0; a transiently negative running integral is
    physically admissible for strongly non-Markovian baths, so it is
    reported as a warning rather than an error.
    """
    population, decay, coherence = _state_coefficients(tuple(states))
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
        population
        - decay * np.exp(-2.0 * re_int)
        + coherence * (np.exp(-re_int) * np.cos(integral.imag))
    )
    return FidelityCurve(kernel.grid, values)


@lru_cache(maxsize=8)
def _state_coefficients(states: tuple) -> tuple:
    """The state averages of 1 - p, p - 2 p^2 and 2 (p - p^2), formed once
    per states tuple, not once per row of a block, and so checked once."""
    p = np.array(_check_states(states), dtype=float)
    return np.mean(1.0 - p), np.mean(p - 2.0 * p * p), np.mean(2.0 * (p - p * p))


def _check_states(states: Sequence[float]) -> tuple:
    """`states` as a tuple; a ValueError if it is empty or a p is outside [0, 1]."""
    states = tuple(states)
    if not states:
        raise ValueError("states must be non-empty")
    for i, p in enumerate(states):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"states[{i}] must be an excited probability in [0, 1], got {p!r}")
    return states
