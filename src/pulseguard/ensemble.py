"""The one block/reduce engine behind every run, single trajectory or ensemble.

A block is a picklable callable, and trajectory k's only randomness is
substream (master_seed, k).  block(ks) returns the rows of the trajectories
ks as one (len(ks), rows, n_steps + 1) array.  The indices are cut into
fixed blocks of _BLOCK, each one unit of work.  Each block is reduced where
it runs, to its sum and its sum of squared deviations from its own mean,
and the blocks are merged in index order (Chan, Golub & LeVeque, 1979), so
a block's rows never leave it and the rows held at once are O(blocks), not
O(n_traj).  `workers` processes share the blocks out, in a process pool of
at most one worker per block, or in this process when that is one; the
pool module is imported only when a pool starts, so a one-process run never
loads multiprocessing.  A pool worker prints its warnings with the
parent's `warnings.showwarning` under any start method, where that
printer pickles; otherwise a `spawn` or `forkserver` worker keeps
Python's own.  The blocks never depend on the worker count, so neither
does any bit of the result.
"""

from __future__ import annotations

import warnings
from functools import partial, reduce
from typing import Callable

import numpy as np

from .numerics import NumericOverflowError

__all__ = ["ensemble_mean"]

# trajectories per unit of work: fig3's 64 trajectories make one block per
# worker at two workers, and fig4's 32 sweeps a single block, which runs in
# one process.  Measured on fig3 (2-core host), a block costs ~2.3 ms per
# trajectory at 32 and ~3.3 ms at 2, so a short remainder block costs
# little more per trajectory than a full one
_BLOCK = 32


def _show_warnings_with(showwarning) -> None:
    """Start a pool worker with the parent's warning printer, which only a
    forked worker inherits; None keeps the worker's own."""
    if showwarning is not None:
        warnings.showwarning = showwarning


def _run_block(block: Callable[[range], np.ndarray], ks: range) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the rows of the trajectories ks, and the sum of their squared
    deviations from the block mean, each of one trajectory's shape.

    These are the steps numpy's mean and std take, so one block's merge is
    their result bit for bit.
    """
    try:
        rows = block(ks)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"trajectory {ks[exc.row]}: {exc}") from exc
    sums = rows.sum(axis=0)
    deviations = rows - sums / len(ks)
    return sums, np.square(deviations, out=deviations).sum(axis=0)


def ensemble_mean(
    block: Callable[[range], np.ndarray],
    n_traj: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the rows of trajectory k over k = 0 .. n_traj - 1,
    which block(ks) returns for each block of indices ks.

    A NumericOverflowError from block(ks) names its position in ks as its
    `row`, and is raised again naming trajectory ks[row].

    Both are taken over the trajectory axis only, so each keeps the shape of
    one trajectory's rows; the stderr is the sample standard error (ddof=1)
    and zero for a single trajectory, whose mean is its rows bit for bit.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    blocks = [range(lo, min(lo + _BLOCK, n_traj)) for lo in range(0, n_traj, _BLOCK)]
    run = partial(_run_block, block)
    # a worker past the number of blocks would sit idle, and a fork start
    # method would still start it
    workers = min(workers, len(blocks))
    if workers == 1:
        parts = list(map(run, blocks))
    else:
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        # a worker that is not forked is sent the printer by pickle, which
        # fails for a lambda or a nested function; such a printer stays home
        showwarning = warnings.showwarning
        try:
            pickle.dumps(showwarning)
        except (pickle.PicklingError, AttributeError, TypeError):
            showwarning = None
        with ProcessPoolExecutor(max_workers=workers, initializer=_show_warnings_with,
                                 initargs=(showwarning,)) as pool:
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
