"""The CPUs this process may use, its BLAS thread count, and work dealt
over the CPUs.

Inference, corpus synthesis and dataset extraction each call `deal` on
independent items whose results land in places chosen by the caller, so
the outputs keep their bytes whatever the number of threads. The caller
and short-lived helpers, bound off the caller's CPU, take the items in
order from one queue. A scratch budget keeps the items in flight within
a fixed amount of memory, so a long signal is not held once per CPU.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

log = logging.getLogger(__name__)

# The variables that set a BLAS library's thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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


def pin_blas_threads() -> None:
    """Run BLAS on one thread unless a BLAS_THREAD_VARS count is set.

    A GEMM can round differently with its thread count (conv2's weight
    gradient at batch 2 does under OpenBLAS), so without this a model's
    bytes would depend on the CPUs it trained on; and a second BLAS
    thread doubled training's CPU time for no wall-time gain on two CPUs.
    Before numpy is loaded the variables are set; after, numpy's bundled
    OpenBLAS is told through ctypes. A count the caller set is honoured.
    """
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
        return
    libs = os.path.dirname(sys.modules["numpy"].__file__) + ".libs"
    try:
        (path,) = glob.glob(os.path.join(libs, "libscipy_openblas*"))
        set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
    except (ValueError, OSError, AttributeError):  # no bundled OpenBLAS, or another interface
        log.warning("numpy was loaded before chatterdetect and its BLAS thread count could "
                    "not be set to 1; set OPENBLAS_NUM_THREADS=1 for thread-independent models")
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


def other_cpus() -> set[int] | None:
    """The CPUs the calling thread may run on but for the one it runs on
    now; None where threads cannot be placed on this platform."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    return os.sched_getaffinity(0) - {ctypes.CDLL(None).sched_getcpu()}


def deal(fn, items, item_bytes: int) -> None:
    """Call fn(item) for every item, on up to cpu_count() threads.

    Each thread, the caller's included, takes the next untaken item until
    none is left, so a costly item or a slow CPU leaves no thread idle.
    The threads are also capped by the item count and by SCRATCH_BUDGET //
    item_bytes, where item_bytes is the most scratch memory one call of fn
    holds. A single thread starts no helper; helpers are gone before this
    returns. If calls fail, the lowest failing item's exception is raised,
    as in a serial loop: items are taken in order, a thread stops at its
    first failure, and every item taken runs, so all before it passed.
    """
    items = list(items)
    # the CPU set is asked for only when more than one thread could run,
    # so a stream window's inference, one item, does not pay for the call
    workers = min(len(items), SCRATCH_BUDGET // max(item_bytes, 1))
    if workers > 1:
        workers = min(workers, cpu_count())
    if workers <= 1:
        for item in items:
            fn(item)
        return
    untaken = iter(range(len(items)))
    taking = threading.Lock()  # next() alone is not atomic on free-threaded builds

    def run(cpus=None):
        """(index, exception) of the thread's first failing item, or None."""
        if cpus:
            # a scheduler that does not balance load can start the helper
            # on the caller's CPU and leave it there; on Linux, pid 0 binds
            # this thread alone
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # the placement is only a hint
                pass
        while True:
            with taking:
                i = next(untaken, None)
            if i is None:
                return None
            try:
                fn(items[i])
            except Exception as exc:  # re-raised below if no earlier item failed
                return i, exc

    with ThreadPoolExecutor(workers - 1) as pool:
        cpus = other_cpus()
        helpers = [pool.submit(run, cpus) for _ in range(workers - 1)]
        failures = [run()] + [helper.result() for helper in helpers]
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
