"""The one block/reduce engine behind every run, single trajectory or ensemble.

A block is a picklable callable, and trajectory k's only randomness is
substream (master_seed, k).  block(ks) returns the rows of the trajectories
ks as one (len(ks), rows, n_steps + 1) array.  The indices are cut into
fixed blocks of _BLOCK, each one unit of work.  Each block is reduced where
it runs, to its sum and its sum of squared deviations from its own mean,
and the blocks are merged in index order (Chan, Golub & LeVeque, 1979), so
a block's rows never leave it and the rows held at once are O(blocks), not
O(n_traj).  The blocks never depend on the worker count, so neither does
any bit of the result.

`workers` processes share the blocks out, in a process pool of at most one
worker per block, or in this process when that is one; the pool module is
imported only when a pool starts, so a one-process run never loads
multiprocessing.  The pool is kept for the life of the process: the first
pooled run starts it, and later runs reuse it while three things stay as
they were when it started, the worker count, `warnings.showwarning` and
`warnings.filters`.  When one changes, the old pool is shut down before a
new one starts, so that no worker is forked while the old pool's threads
run.  A pool that broke while idle (a worker killed between runs, say)
refuses a run's first block at once, before any block reached it, so that
run drops it and starts on a fresh pool, once; a pool that breaks after a
block reached it is dropped and the break is raised, and the next pooled
run starts a fresh one.  At a normal exit `concurrent.futures`
joins the workers, and a worker whose parent dies exits by itself.  A
child forked from a process that keeps a pool does not use it: under the
`fork` and `spawn` start methods its first pooled run starts its own, but
under `forkserver` that run raises `ChildProcessError`, since the child
inherits a handle on its parent's forkserver process, which it cannot use.

A pool worker prints its warnings with the parent's `warnings.showwarning`
under any start method, where that printer pickles; otherwise a `spawn` or
`forkserver` worker keeps Python's own.  A worker lives as long as the
pool, so a warning that the `default` action prints once prints once per
worker for the life of the process, as the one-process path prints it once.

The process keeps its freed memory as it keeps the pool.  On glibc this
module's import has `mallopt` keep up to 128 MiB of freed heap in the
process and serve arrays under 32 MiB from the heap, so that the next
solve reuses the last one's pages: before, glibc returned them to the
kernel and every solve faulted them back in, 9,800-12,400 minor faults per
pass of eight fig4 ensembles of four sweeps, ~280 per sweep in the Volterra
solve.  Arrays over 32 MiB are still mapped and unmapped one by one.  Pool
workers import this module, or are forked from a process that did, so
they keep theirs too.  Elsewhere nothing is set, and there is no switch: a
process that needs other settings calls `mallopt` itself after the import.
"""

from __future__ import annotations

import os
import threading
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
# little more per trajectory than a full one.  The pool that runs the
# blocks outlives the run, since starting one added ~30 ms under fork and
# ~0.25 s under forkserver to a ~70 ms fig3 run of 64 at two workers
_BLOCK = 32

# the kept pool and the (workers, printer, filters) it was started under;
# the lock makes choosing, replacing and using it one step per thread
_pool = None
_pool_key = None
_pool_lock = threading.RLock()


def _forget_pool() -> None:
    """In a forked child the parent's pool is not its own: forget it unused."""
    global _pool, _pool_key, _pool_lock
    _pool, _pool_key, _pool_lock = None, None, threading.RLock()


# a platform without fork (Windows) has nothing to forget
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)

# glibc's mallopt parameters, and the values that keep freed heap memory:
# 32 MiB is the largest mmap threshold glibc takes on 64 bits
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_BYTES = 128 << 20
_MMAP_BYTES = 32 << 20


def _keep_freed_memory() -> None:
    """Keep up to _TRIM_BYTES of freed heap in the process, and serve arrays
    under _MMAP_BYTES from the heap, so that a repeated solve reuses the pages
    of the last one rather than faulting in fresh ones.  Setting either
    threshold turns glibc's dynamic ones off, so both are set.  A C library
    without mallopt (macOS), or none to load (Windows), is left as it is."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


# a pool worker imports this module to run its blocks, or is forked from a
# process that did, so it keeps its memory too
_keep_freed_memory()


def _drop_pool() -> None:
    """Shut the kept pool down and forget it; the next pooled run starts anew."""
    global _pool, _pool_key
    with _pool_lock:
        pool, _pool, _pool_key = _pool, None, None
        if pool is not None:
            pool.shutdown()


def _exit_with_parent(sentinel) -> None:
    """End this worker as soon as `sentinel`, its parent's, is ready: the
    parent has died without shutting the pool down."""
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _start_worker(showwarning) -> None:
    """Start a pool worker: watch its parent, and print warnings with the
    parent's printer, which only a forked worker inherits; None keeps the
    worker's own."""
    import multiprocessing

    # None where a test runs the pool as threads of this process
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent.sentinel,), daemon=True).start()
    if showwarning is not None:
        warnings.showwarning = showwarning


def _kept_pool(workers: int):
    """The kept pool of `workers` processes, started anew if it is missing or
    was started under another worker count, printer or warning filters;
    the caller holds _pool_lock."""
    global _pool, _pool_key
    # a forked worker keeps the printer and filters it was forked under,
    # whether the printer pickles or not, so the key holds both as they are
    key = (workers, warnings.showwarning, tuple(warnings.filters))
    if _pool is not None and _pool_key == key:
        return _pool
    _drop_pool()
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    # a worker that is not forked is sent the printer by pickle, which
    # fails for a lambda or a nested function; such a printer stays home
    showwarning = warnings.showwarning
    try:
        pickle.dumps(showwarning)
    except (pickle.PicklingError, AttributeError, TypeError):
        showwarning = None
    _pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                initargs=(showwarning,))
    _pool_key = key
    return _pool


def _pooled(run: Callable[[range], tuple], blocks: list, workers: int) -> list:
    """run(ks) for each of blocks, in order, on the kept pool of `workers`.

    A pool that broke while idle refuses the first block at once, before
    any block reached it, so it is dropped and the run starts on a fresh
    pool, once.  A break after that drops the pool and is raised.
    """
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        try:
            pool = _kept_pool(workers)
            try:
                futures = [pool.submit(run, blocks[0])]
            except BrokenProcessPool:
                _drop_pool()
                pool = _kept_pool(workers)
                futures = [pool.submit(run, blocks[0])]
            try:
                futures += [pool.submit(run, ks) for ks in blocks[1:]]
                return [future.result() for future in futures]
            finally:
                # as Executor.map: a block that failed leaves none queued
                for future in futures:
                    future.cancel()
        except BrokenProcessPool:
            _drop_pool()
            raise


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
    parts = list(map(run, blocks)) if workers == 1 else _pooled(run, blocks, workers)
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
