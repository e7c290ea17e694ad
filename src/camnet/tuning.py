"""Process-level performance knobs.

numpy releases large buffers straight back to the OS (glibc mmaps
allocations above a threshold), so a training step that churns through
hundreds of MB of scratch pays page-fault cost on every batch.  Raising
the malloc mmap/trim thresholds keeps those pages cached in the heap and
speeds the loop up severalfold.  Batch-1 work gains too: every float64
buffer of 128 KiB or more (a 128x128 explain's im2col, its activations)
would otherwise be mapped and faulted in afresh on each call.
`cli.main` applies the policy on entry, so every command runs under it;
`optim.train` applies it as well for library callers.  The call is
idempotent.  Results are unaffected; this is safe to skip on non-glibc
platforms.
"""

import ctypes

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
