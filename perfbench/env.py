"""The environment a benchmark run measured under.

Round times depend on the BLAS library and how many threads it runs, so
every record carries them.  The benchmark sets no thread caps: the
record reports the environment as found, including the
oversubscription a process pool suffers when each worker inherits a full
OpenBLAS threadpool.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The thread-count getter of a plain OpenBLAS build, and of the
# scipy-openblas64 build that NumPy wheels bundle (prefixed and suffixed).
_GET_THREADS_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def blas_info() -> dict:
    """BLAS name and version as NumPy reports them."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def openblas_threads() -> tuple[int | None, str | None]:
    """The effective OpenBLAS thread count of this process.

    Read through ctypes from the OpenBLAS that NumPy loaded (``dlopen``
    of an already-loaded path returns the same library).  Returns
    ``(None, reason)`` when no OpenBLAS getter is found.
    """
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    candidates = sorted(glob.glob(os.path.join(libdir, "*openblas*")))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _GET_THREADS_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter()), None
    return None, "no OpenBLAS library with a get_num_threads symbol found"


def git_sha(root: str) -> tuple[str | None, str | None]:
    """HEAD of the checkout, or ``(None, reason)`` outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as err:
        return None, f"git unavailable: {err}"
    if out.returncode != 0:
        return None, "not a git checkout"
    return out.stdout.strip(), None


def environment(root: str, seed: int) -> dict:
    """The full environment record of one benchmark run."""
    import numpy as np
    threads, threads_reason = openblas_threads()
    sha, sha_reason = git_sha(root)
    record = {
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "openblas_threads": threads,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
    }
    reasons = {k: v for k, v in (("openblas_threads", threads_reason),
                                 ("git_sha", sha_reason)) if v}
    if reasons:
        record["null_reasons"] = reasons
    return record
