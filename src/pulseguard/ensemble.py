"""The one block/reduce engine behind every run, single trajectory or ensemble.

A trajectory object is picklable, and trajectory k's only randomness is
substream (master_seed, k).  Its block(ks) returns the rows of the
trajectories ks as one (len(ks), rows, n_steps + 1) array; the trajectory
classes name the rows in their `rows` attribute.  The indices are cut into
fixed blocks of _BLOCK, each one unit of work, and the rows are reduced in
index order.  `workers` processes share the blocks out, in a process pool
of at most one worker per block, or in this process when that is one; the
pool module is imported only when a pool starts, so a one-process run never
loads multiprocessing.  The blocks never depend on the worker count, so
neither does any bit of the result.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from .numerics import NumericOverflowError

__all__ = ["ensemble_mean", "stack_trajectories"]

# trajectories per unit of work: fig3's 64 trajectories make one block per
# worker at two workers, and fig4's 32 sweeps a single block, which runs in
# one process.  Measured on fig3 (2-core host), a block costs ~2.3 ms per
# trajectory at 32 and ~3.3 ms at 2, so a short remainder block costs
# little more per trajectory than a full one
_BLOCK = 32


def _run_block(trajectory, ks: range) -> np.ndarray:
    try:
        return trajectory.block(ks)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"trajectory {ks[exc.row]}: {exc}") from exc


def stack_trajectories(trajectory: Callable[[int], np.ndarray], ks: Sequence[int]) -> np.ndarray:
    """block(ks) for trajectories run one at a time: trajectory(k) for each k, stacked."""
    rows = []
    for row, k in enumerate(ks):
        try:
            rows.append(trajectory(k))
        except NumericOverflowError as exc:
            raise NumericOverflowError(str(exc), row) from exc
    return np.stack(rows)


def ensemble_mean(
    trajectory,
    n_traj: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the rows of trajectory k over k = 0 .. n_traj - 1.

    Both are taken over the trajectory axis only, so each keeps the shape of
    one trajectory's rows; the stderr is the sample standard error (ddof=1)
    and zero for a single trajectory, whose mean is its rows bit for bit.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    blocks = [range(lo, min(lo + _BLOCK, n_traj)) for lo in range(0, n_traj, _BLOCK)]
    run = partial(_run_block, trajectory)
    # a worker past the number of blocks would sit idle, and a fork start
    # method would still start it
    workers = min(workers, len(blocks))
    if workers == 1:
        parts = list(map(run, blocks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))
    rows = np.concatenate(parts, axis=0)
    mean = rows.mean(axis=0)
    if n_traj == 1:
        return mean, np.zeros_like(mean)
    return mean, rows.std(axis=0, ddof=1) / np.sqrt(n_traj)
