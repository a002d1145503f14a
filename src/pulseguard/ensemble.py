"""The one block/reduce engine behind every run, single trajectory or ensemble.

A trajectory object is picklable, and trajectory k's only randomness is
substream (master_seed, k).  Its block(ks) returns the rows of the
trajectories ks as one (len(ks), rows, n_steps + 1) array; the trajectory
classes name the rows in their `rows` attribute.  The indices are cut into
fixed blocks of _BLOCK, each one unit of work.  Each block is reduced where
it runs, to its sum and its sum of squared deviations from its own mean,
and the blocks are merged in index order (Chan, Golub & LeVeque, 1979), so
a block's rows never leave it and the rows held at once are O(blocks), not
O(n_traj).  `workers` processes share the blocks out, in a process pool of
at most one worker per block, or in this process when that is one; the
pool module is imported only when a pool starts, so a one-process run never
loads multiprocessing.  The blocks never depend on the worker count, so
neither does any bit of the result.
"""

from __future__ import annotations

from functools import partial, reduce
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


def _run_block(trajectory, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the rows of the trajectories ks, and the sum of their squared
    deviations from the block mean, each of one trajectory's shape.

    These are the steps numpy's mean and std take, so one block's merge is
    their result bit for bit.
    """
    try:
        rows = trajectory.block(ks)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"trajectory {ks[exc.row]}: {exc}") from exc
    sums = rows.sum(axis=0)
    deviations = rows - sums / len(ks)
    return sums, np.square(deviations, out=deviations).sum(axis=0)


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
    mean = reduce(np.add, [sums for sums, _ in parts]) / n_traj
    if n_traj == 1:
        return mean, np.zeros_like(mean)
    # each block's squares about its own mean, moved to the ensemble mean;
    # the shift is exactly zero for a single block
    squares = reduce(np.add, [
        block_squares + len(ks) * (sums / len(ks) - mean) ** 2
        for ks, (sums, block_squares) in zip(blocks, parts)
    ])
    return mean, np.sqrt(squares / (n_traj - 1)) / np.sqrt(n_traj)
