"""Ordered process fan-out, shared by the profiler and the experiments.

:func:`ordered_map` maps a callable over items on a worker pool and
returns the results in input order (``Pool.map`` semantics), never
completion order, so the worker count is invisible in the output.  It
runs a plain in-process loop instead whenever a pool cannot help or
cannot exist:

* fewer than two workers were asked for, or there are fewer than two
  items;
* the platform has no such start method (``fork`` is POSIX-only);
* the caller is itself a daemonic pool worker, which may not have
  children (a profile built inside ``reproduce --jobs N``);
* ``fork`` was asked for while the caller runs other threads: a child
  forked then may inherit a lock some thread held, and hang on it.

The callable reaches each worker once, through the pool
``initializer``.  Under ``fork`` it is inherited, never pickled, so it
may carry large state (graphs, profile stores) at no cost; under
``spawn`` it must pickle.  An exception raised by any item is re-raised
in the caller and the pool is torn down, so no worker outlives the call.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["ordered_map", "usable_cpus"]

T = TypeVar("T")
R = TypeVar("R")

# The mapped callable inside a pool worker; set by the initializer.
_task: Optional[Callable] = None


def _install(fn: Callable) -> None:
    global _task
    _task = fn


def _call(item):
    return _task(item)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def ordered_map(
    fn: Callable[[T], R], items: Sequence[T], processes: int, method: str
) -> List[R]:
    """``[fn(item) for item in items]``, over up to ``processes`` workers
    started with ``method`` (``"fork"`` or ``"spawn"``)."""
    items = list(items)
    processes = min(processes, len(items))
    if (
        processes < 2
        or method not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or (method == "fork" and threading.active_count() > 1)
    ):
        return [fn(item) for item in items]
    context = multiprocessing.get_context(method)
    with context.Pool(processes, initializer=_install, initargs=(fn,)) as pool:
        return pool.map(_call, items, chunksize=1)
