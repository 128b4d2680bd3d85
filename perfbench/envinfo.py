"""The machine and library facts that every benchmark report records."""
from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _blas_build(module):
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # older releases print instead of returning
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _blas_threads():
    """Thread count reported by every OpenBLAS loaded in this process."""
    libs = set()
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        return {}
    threads = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _cpu():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        entries = []
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as f:
                level = f.read().strip()
            with open(f"{base}/{entry}/type") as f:
                kind = f.read().strip()
            with open(f"{base}/{entry}/size") as f:
                size = f.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {"model": model or platform.processor(), **caches}


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_build(np),
        "blas_scipy": _blas_build(scipy),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
    }
