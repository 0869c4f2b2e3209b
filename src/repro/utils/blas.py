"""Read and set the OpenBLAS thread count of this process at runtime.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when the library loads, so
a process-pool worker inherits the parent's full threadpool whatever its
environment says.  Two workers on two cores then run four busy BLAS
threads.  These helpers reach the OpenBLAS that NumPy loaded through
ctypes (``dlopen`` of an already-loaded path returns the same library)
and call its ``get``/``set_num_threads`` symbols: the scipy-openblas64
names NumPy wheels bundle first, the plain OpenBLAS names as fallback.

On a NumPy build without OpenBLAS (MKL, Accelerate, ...) both are
no-ops: :func:`get_threads` returns ``None`` and :func:`set_threads`
returns ``False``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Any

# (getter, setter) of the scipy-openblas64 build NumPy wheels bundle
# (prefixed and suffixed), then of a plain OpenBLAS build.
_SYMBOLS = (("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


def _library_paths() -> list[str]:
    """OpenBLAS libraries mapped into this process, then NumPy's bundle."""
    import numpy as np
    try:
        with open("/proc/self/maps") as maps:
            mapped = {line.split()[-1] for line in maps
                      if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        mapped = set()
    bundled = glob.glob(os.path.join(os.path.dirname(np.__file__),
                                     os.pardir, "numpy.libs", "*openblas*"))
    paths = sorted(mapped) + sorted(bundled)
    return list(dict.fromkeys(os.path.realpath(p) for p in paths))


@functools.lru_cache(maxsize=1)
def _openblas() -> tuple[Any, Any]:
    """``(getter, setter)`` of NumPy's OpenBLAS, or ``(None, None)``."""
    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None, None


def get_threads() -> int | None:
    """The effective OpenBLAS thread count, or ``None`` without OpenBLAS."""
    getter, _ = _openblas()
    return None if getter is None else getter()


def set_threads(n: int) -> bool:
    """Cap OpenBLAS at ``n`` threads; ``False`` (no-op) without OpenBLAS."""
    _, setter = _openblas()
    if setter is None:
        return False
    setter(int(n))
    return True


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset``
    counts, falling back to ``os.cpu_count()`` where there is none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_budget(workers: int, cpus: int,
                  parent_threads: int | None = None) -> int:
    """OpenBLAS threads per pool worker so ``workers × threads ≤ cpus``.

    Never more than the parent's own count (an explicit
    ``OPENBLAS_NUM_THREADS=1`` stays respected) and never below one.
    """
    budget = cpus // workers
    if parent_threads is not None:
        budget = min(parent_threads, budget)
    return max(1, budget)
