"""Run every loaded OpenBLAS on one thread.

All of this library's matrix products are small — the largest operand
is the roughly 500 x 257 power spectrum that ``power @ filterbank.T``
maps onto the mel bands — and the library already parallelises where
it pays: the transcription engine fans suite members out over a thread
pool, and the detection service and the experiment runner fan requests
and shards out over forked processes.  A BLAS thread pool on top of
that only oversubscribes the CPUs, and OpenBLAS's pool threads
spin-wait between calls.  On a 2-vCPU host a sequential ``detect()``
of a 5 s clip cost 176-197 ms of CPU for 89-100 ms of wall time with
numpy's default pool (one thread per CPU), and 86-88 ms of both with
one BLAS thread.  The results do not depend on the thread count; the
parity tests in ``tests/test_dsp_vectorized.py`` pin that.

``import repro`` calls :func:`set_num_threads` with 1 once, before
any other module of the package loads, so every entry point (and
every forked worker, which inherits the setting) runs single-threaded
BLAS.  This overrides ``OPENBLAS_NUM_THREADS``.  The libraries are
found through ``/proc/self/maps``, so on a host without it, or with a
BLAS other than OpenBLAS (MKL, Accelerate), nothing happens.
"""

from __future__ import annotations

import ctypes
import os

import numpy  # noqa: F401  (maps numpy's BLAS into the process)

# numpy's wheels bundle OpenBLAS as ``libscipy_openblas64_*.so`` with
# prefixed, suffixed symbols (``scipy_openblas_set_num_threads64_``); a
# system libopenblas exports the bare names.
_PREFIXES = ("scipy_", "")
_SUFFIXES = ("64_", "_64", "")


def _mapped_openblas_paths() -> list[str]:
    """Paths of the shared objects mapped into this process whose path
    names OpenBLAS (empty where ``/proc/self/maps`` does not exist)."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) == 6 and "openblas" in fields[5].lower():
            paths.add(fields[5].strip())
    return sorted(paths)


def _symbol(library: ctypes.CDLL, name: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(library, prefix + name + suffix, None)
            if function is not None:
                return function
    return None


def _loaded_openblas() -> list[tuple]:
    """``(set_num_threads, get_num_threads)`` of every loaded OpenBLAS."""
    found = []
    for path in _mapped_openblas_paths():
        try:
            # RTLD_NOLOAD: only hand back a library that is already
            # loaded, never load a new one.
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        setter = _symbol(library, "openblas_set_num_threads")
        getter = _symbol(library, "openblas_get_num_threads")
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
    return found


def set_num_threads(n_threads: int) -> None:
    """Set every loaded OpenBLAS to ``n_threads`` threads."""
    for setter, _ in _loaded_openblas():
        setter(int(n_threads))


def num_threads() -> list[int]:
    """The thread count of every loaded OpenBLAS (empty if none)."""
    return [int(getter()) for _, getter in _loaded_openblas()]
