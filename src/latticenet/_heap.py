"""Keep freed heap memory in the process on glibc.

glibc's malloc starts with a 128 KiB mmap threshold and a 128 KiB trim
threshold, and raises both as the program frees large blocks: the mmap
threshold climbs to the size of the largest mmapped block freed, up to
32 MiB on a 64-bit system, and the trim threshold to twice that.  Until a
process has freed a large enough block, each backward pass frees ~1 MB at
the top of the heap, glibc returns it to the kernel, and the next forward
pass takes it back one page fault at a time: a warm training step of 27
knots at knots_toy's architecture took 373 minor faults, at ~4 µs each on
a 2-vCPU x86-64 host, and takes none with the thresholds pinned.

:func:`pin_thresholds` sets both thresholds to the values the dynamic rule
climbs to.  Any ``mallopt`` call freezes that rule, so both are set: the
trim threshold alone would leave the mmap threshold at 128 KiB for good,
and every large array would be mapped and faulted in afresh.
"""

import ctypes
import os

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # DEFAULT_MMAP_THRESHOLD_MAX on 64-bit glibc
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # as the dynamic rule sets it

# glibc's environment aliases of the malloc tunables that freeze the
# dynamic rule
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
              "MALLOC_MMAP_MAX_")


def pin_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; True if both were set.

    Does nothing, and returns False, where the C library is not glibc or
    where the environment already sets a glibc malloc tunable
    (``GLIBC_TUNABLES`` naming ``glibc.malloc.*``, or one of
    :data:`MALLOC_ENV`): explicit settings win.  On a 32-bit glibc the mmap
    threshold is refused as too high, and the trim threshold is then left
    alone too, so the dynamic rule stays in force.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not (libc or "").startswith("glibc"):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "") or any(
            name in os.environ for name in MALLOC_ENV):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
