"""Process-level performance policy: malloc pages, the BLAS thread count
and the worker pool.

numpy releases large buffers straight back to the OS (glibc mmaps
allocations above a threshold), so a training step that churns through
hundreds of MB of scratch pays page-fault cost on every batch.  Raising
the malloc mmap/trim thresholds keeps those pages cached in the heap and
speeds the loop up severalfold.  Batch-1 work gains too: every float64
buffer of 128 KiB or more (a 128x128 explain's activations, a conv band
buffer of ops.CONV_BAND_BYTES) would otherwise be mapped and faulted in
afresh on each call.
`cli.main` applies the policy on entry, so every command runs under it;
`optim.train` applies it as well for library callers.  The call is
idempotent.  Results are unaffected; this is safe to skip on non-glibc
platforms.

The second core is used by data parallelism, not by BLAS threads:
`optim.train` (its `model.train_step`, one task per shard of model.SHARD
images, and its chunked optimizer update) and `model.predict` run their
pieces on one pool of `workers()` threads, under `one_blas_thread()`,
which pins OpenBLAS to one thread.  A pool runs at most `workers()`
tasks at once, so a training step holds at most that many shards' patch
matrices.  numpy releases the GIL inside its GEMMs and ufuncs, so the
threads compute in parallel.  A spinning OpenBLAS thread left threaded
numpy kernels with no gain, and two workers on top of two BLAS threads
were slower than either alone, so where the pin is missing (no OpenBLAS,
or one without the symbol) the pool has one worker.  Every piece's result
is the same whichever thread computes it, and the callers combine them in
a fixed order, so outputs do not depend on the worker count.
"""

import contextlib
import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np  # noqa: F401  (loads the BLAS that _openblas looks for)

_done = False

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_malloc_pages() -> None:
    global _done
    if _done:
        return
    _done = True
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(_M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    except OSError:
        pass


@functools.cache
def _openblas():
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or
    None.  The library is found among the process's mapped files; its
    symbol is `openblas_set_num_threads` with the build's prefix and
    suffix (scipy-openblas wheels export `scipy_openblas_..._threads64_`)."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
                getter = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


def blas_threads():
    """OpenBLAS's current thread count, or None where it cannot be read."""
    api = _openblas()
    return None if api is None else api[1]()


_lock = threading.Lock()  # guards the pin's depth and the pools
_pin_depth = 0
_pin_saved = None


@contextlib.contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread for the block, and restore the previous
    count when the outermost block exits.  Re-entrant, also across
    threads; a no-op where the pin is missing."""
    global _pin_depth, _pin_saved
    api = _openblas()
    with _lock:
        if api is not None and _pin_depth == 0:
            _pin_saved = api[1]()
            api[0](1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _lock:
            _pin_depth -= 1
            if api is not None and _pin_depth == 0:
                api[0](_pin_saved)


def workers() -> int:
    """Threads of the pool: one per CPU this process may run on, or one
    where OpenBLAS cannot be pinned to one thread."""
    if _openblas() is None:  # as wherever /proc/self/maps is missing (off Linux)
        return 1
    return len(os.sched_getaffinity(0))  # on Linux, which has /proc/self/maps


_pools = {}


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], spread over a pool of workers()
    threads; in the calling thread when there is one worker or one item.
    The results come back in item order.  Each task runs in a copy of the
    caller's context (contextvars), so the caller's np.errstate, which
    numpy 2 keeps in a context variable, holds in every task."""
    items = list(items)
    n = workers()
    if n == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with _lock:
        pool = _pools.get(n)
        if pool is None:
            pool = _pools[n] = ThreadPoolExecutor(n, thread_name_prefix="camnet")
    contexts = [contextvars.copy_context() for _ in items]
    return list(pool.map(lambda ctx, item: ctx.run(fn, item), contexts, items))
