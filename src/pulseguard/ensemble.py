"""The one block/reduce engine behind every run, single trajectory or ensemble.

trajectory(k) is a picklable function whose only randomness is substream
(master_seed, k); it returns an array of rows, which the trajectory classes
name in their `rows` attribute.  The indices are cut into fixed blocks of
_BLOCK, each one unit of work for map_fn (map or an executor's map), and the
rows are reduced in index order, so no bit of the result depends on the
worker count.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

import numpy as np

from .numerics import NumericOverflowError

__all__ = ["ensemble_mean"]

# trajectories per unit of work: fig4's 32 trajectories still give two workers
# four blocks, and fig3-sized ensembles at two workers ran no slower than with 32
_BLOCK = 8


def _run_block(trajectory: Callable[[int], np.ndarray], ks: range) -> np.ndarray:
    rows = []
    for k in ks:
        try:
            rows.append(trajectory(k))
        except NumericOverflowError as exc:
            raise NumericOverflowError(f"trajectory {k}: {exc}") from exc
    return np.stack(rows)


def ensemble_mean(
    trajectory: Callable[[int], np.ndarray],
    n_traj: int,
    map_fn: Callable[..., Iterable] = map,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of trajectory(k) over k = 0 .. n_traj - 1.

    Both are taken over the trajectory axis only, so each keeps the shape of
    one trajectory's rows; the stderr is the sample standard error (ddof=1)
    and zero for a single trajectory, whose mean is its rows bit for bit.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    blocks = [range(lo, min(lo + _BLOCK, n_traj)) for lo in range(0, n_traj, _BLOCK)]
    rows = np.concatenate(list(map_fn(partial(_run_block, trajectory), blocks)), axis=0)
    mean = rows.mean(axis=0)
    if n_traj == 1:
        return mean, np.zeros_like(mean)
    return mean, rows.std(axis=0, ddof=1) / np.sqrt(n_traj)
