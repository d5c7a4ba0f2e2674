"""numpy's OpenBLAS through ``ctypes``: its runtime core and thread count.

The study runs on one BLAS thread.  Its NAVEP solves have a few hundred
rows, where BLAS threads only add overhead; OpenBLAS's default (one
thread per core) oversubscribes the cores under a process pool; and the
thread count changes the last bits ``lstsq`` returns, so the result
digests of some benchmarks would depend on it.  numpy exposes no
thread control, so this module opens the OpenBLAS bundled with the
numpy wheel (``numpy.libs``) and calls its own ``*_set_num_threads``
entry point.

A build that names the symbols differently, or links another BLAS, is
reported as :data:`UNKNOWN` and left alone.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Union

#: What :func:`facts` reports for a value the library does not expose.
UNKNOWN = "unknown"

#: ``(set threads, get threads, core name)`` symbol triples: the
#: scipy-openblas build numpy wheels bundle, then upstream OpenBLAS;
#: each in its 64-bit-integer (suffixed) and plain spelling.
_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}",
     f"{prefix}_get_corename{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", ""))


class _OpenBLAS:
    """The thread and core entry points of one loaded library."""

    def __init__(self, lib: ctypes.CDLL, set_name: str, get_name: str,
                 core_name: str):
        self._set = getattr(lib, set_name)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._get = getattr(lib, get_name)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._core = getattr(lib, core_name, None)
        if self._core is not None:
            self._core.argtypes = []
            self._core.restype = ctypes.c_char_p

    def threads(self) -> int:
        return int(self._get())

    def set_threads(self, count: int) -> None:
        self._set(count)

    def core(self) -> str:
        if self._core is None:
            return UNKNOWN
        name = self._core()
        return name.decode() if name else UNKNOWN


def _candidate_paths() -> List[str]:
    """The OpenBLAS shared objects bundled with the numpy wheel."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    return sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*")))


@lru_cache(maxsize=1)
def _handle() -> Optional[_OpenBLAS]:
    for path in _candidate_paths():
        try:
            # numpy already loaded it, so this returns the same library.
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _SYMBOLS:
            if hasattr(lib, names[0]) and hasattr(lib, names[1]):
                return _OpenBLAS(lib, *names)
    return None


def threads() -> Optional[int]:
    """OpenBLAS's current thread count (``None`` when not reachable)."""
    handle = _handle()
    return handle.threads() if handle is not None else None


def set_threads(count: int) -> None:
    """Set OpenBLAS's thread count; a no-op when it is not reachable."""
    handle = _handle()
    if handle is not None:
        handle.set_threads(count)


def facts() -> Dict[str, Union[str, int]]:
    """``{"core", "threads"}``: the kernel OpenBLAS picked at run time
    and its thread count, :data:`UNKNOWN` where not reachable."""
    handle = _handle()
    if handle is None:
        return {"core": UNKNOWN, "threads": UNKNOWN}
    return {"core": handle.core(), "threads": handle.threads()}


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the block on one BLAS thread, then restore the caller's count."""
    previous = threads()
    set_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_threads(previous)
