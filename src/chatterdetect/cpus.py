"""The CPUs this process may use, and work dealt over them.

Inference, corpus synthesis and dataset extraction each call `deal` on
independent items whose results land in places chosen by the caller, so
the outputs keep their bytes whatever the number of threads. The calling
thread runs one share; short-lived helpers, bound off the caller's CPU,
run the rest. A scratch budget keeps the items in flight within a fixed
amount of memory, so a long signal is not held once per CPU.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

# The most scratch memory the items of one `deal` call may hold at once,
# counted as the threads running them times one item's scratch; one
# thread is always allowed. Inference's 2 MiB blocks at the defaults give
# 8 threads. The gain assumes a single-threaded BLAS; with OpenBLAS's
# default thread count inference gained nothing.
SCRATCH_BUDGET = 16 << 20


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def other_cpus() -> set[int] | None:
    """The CPUs the calling thread may run on but for the one it runs on
    now; None where threads cannot be placed on this platform."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    return os.sched_getaffinity(0) - {ctypes.CDLL(None).sched_getcpu()}


def deal(fn, items, item_bytes: int) -> None:
    """Call fn(item) for every item, on up to cpu_count() threads.

    The items are dealt round-robin: with w threads, share j holds items
    j, j + w, ... in order, and the calling thread runs share 0. w is also
    capped by the item count and by SCRATCH_BUDGET // item_bytes, where
    item_bytes is the most scratch memory one call of fn holds. A single
    thread runs the items in order and starts no helper; helpers are gone
    before this returns. If calls fail, the exception of the lowest
    failing item is raised: the one a serial loop would raise, as a share
    stops at its first failure and runs its items in order.
    """
    items = list(items)
    workers = max(1, min(cpu_count(), len(items), SCRATCH_BUDGET // max(item_bytes, 1)))
    if workers == 1:
        for item in items:
            fn(item)
        return

    def run(share, cpus=None):
        """(index, exception) of the share's first failing item, or None."""
        if cpus:
            # a scheduler that does not balance load can start the helper
            # on the caller's CPU and leave it there; on Linux, pid 0 binds
            # this thread alone
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # the placement is only a hint
                pass
        for i in share:
            try:
                fn(items[i])
            except Exception as exc:  # re-raised below if no earlier item failed
                return i, exc
        return None

    shares = [range(j, len(items), workers) for j in range(workers)]
    with ThreadPoolExecutor(workers - 1) as pool:
        cpus = other_cpus()
        helpers = [pool.submit(run, share, cpus) for share in shares[1:]]
        failures = [run(shares[0])] + [helper.result() for helper in helpers]
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
