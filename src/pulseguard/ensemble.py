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
pooled run starts it, and later runs of its worker count reuse it.  A run of
another count shuts it down before a new one starts, so that no worker is
forked while the old pool's threads run.  A pool that broke while idle (a
worker killed between runs, say) refuses a run's first block at once, before
any block reached it, so that run drops it and starts on a fresh pool, once;
a pool that breaks after a block reached it is dropped, the run fails with
a MemoryError that names the trajectories of the first block not done, and
the next pooled run starts a fresh one.  At a normal exit
`concurrent.futures` joins the workers, and a worker whose parent dies exits
by itself.  A child forked from a process that keeps a pool does not use it:
under the `fork` and `spawn` start methods its first pooled run starts its
own, but under `forkserver` that run raises `ChildProcessError`, since the
child inherits its parent's forkserver handle, which it cannot use.

A pool worker sends its block's warnings back with its sums, and this
process issues them in block order under its own filters and printer, as a
one-process run would; a block that raises sends back only its error.

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
import sys
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

# the kept pool and its worker count; the lock makes choosing, replacing
# and using it, and issuing its warnings, one step per thread
_pool = None
_pool_workers = None
_pool_lock = threading.RLock()
# the pooled warnings that the `default` and `module` actions have shown
_registry: dict = {}


def _forget_pool() -> None:
    """In a forked child the parent's pool is not its own: forget it unused."""
    global _pool, _pool_workers, _pool_lock
    _pool, _pool_workers, _pool_lock = None, None, threading.RLock()


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
    global _pool, _pool_workers
    with _pool_lock:
        pool, _pool, _pool_workers = _pool, None, None
        if pool is not None:
            pool.shutdown()


def _exit_with_parent(sentinel) -> None:
    """End this worker as soon as `sentinel`, its parent's, is ready: the
    parent has died without shutting the pool down."""
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _start_worker() -> None:
    """Start a pool worker: watch its parent."""
    import multiprocessing

    # None where a test runs the pool as threads of this process
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent.sentinel,), daemon=True).start()


def _kept_pool(workers: int):
    """The kept pool of `workers` processes, started anew if it is missing or
    was started with another worker count; the caller holds _pool_lock."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers == workers:
        return _pool
    _drop_pool()
    from concurrent.futures import ProcessPoolExecutor

    _pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker)
    _pool_workers = workers
    return _pool


def _recorded(run: Callable[[range], tuple], ks: range) -> tuple[tuple, list]:
    """run(ks) in a pool worker, and the warnings it raised as arguments of
    warnings.warn_explicit, with the module name that a filter matches."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = run(ks)
    names = {getattr(module, "__file__", None): name for name, module in list(sys.modules.items())}
    return part, [(w.message, w.category, w.filename, w.lineno, names.get(w.filename))
                  for w in caught]


def _pooled(run: Callable[[range], tuple], blocks: list, workers: int) -> list:
    """run(ks) for each of blocks, in order, on the kept pool of `workers`.

    A pool that broke while idle refuses the first block at once, before
    any block reached it, so it is dropped and the run starts on a fresh
    pool, once.  A break after that, a worker that died (killed by the
    operating system for memory, say), drops the pool and is raised as a
    MemoryError that names the trajectories of the first block not done.
    """
    from concurrent.futures.process import BrokenProcessPool

    run = partial(_recorded, run)
    done = 0
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
                # each block's warnings are issued here as it is collected
                for future in futures:
                    for args in future.result()[1]:
                        warnings.warn_explicit(*args, registry=_registry)
                    done += 1
                return [future.result()[0] for future in futures]
            finally:
                # as Executor.map: a block that failed leaves none queued
                for future in futures:
                    future.cancel()
        except BrokenProcessPool as exc:
            _drop_pool()
            ks = blocks[done]
            raise MemoryError(f"a pool worker died before trajectories {ks[0]}-{ks[-1]} "
                              "were done") from exc


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
    `row`, and is raised again naming trajectory ks[row].  A pool worker
    that dies under the run is a MemoryError (see _pooled).

    Both are taken over the trajectory axis only, so each keeps the shape of
    one trajectory's rows; the stderr is the sample standard error (ddof=1)
    and zero for a single trajectory, whose mean is its rows bit for bit.
    """
    for name, value in (("n_traj", n_traj), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
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
