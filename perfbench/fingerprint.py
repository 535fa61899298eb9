"""Host fingerprint stored with every record, and the host's CPU
accounting (steal, and the CPU time of this process and its workers).

Timings from different hosts (or thread settings) are not comparable, so
:func:`check_comparable` refuses a comparison between records whose
fingerprints differ instead of reporting a meaningless delta.
"""

from __future__ import annotations

import os
import platform
import sys
import time

#: Environment variables that set BLAS / OpenMP thread pools.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class FingerprintMismatch(ValueError):
    """Two records were measured on hosts that do not compare."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def host_fingerprint() -> dict:
    import numpy as np

    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 0
    return {
        "usable_cores": cores,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }


def cpu_steal_ticks() -> int:
    """Clock ticks the hypervisor ran other guests on this host's CPUs
    (``/proc/stat`` steal; 0 where unavailable)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def cpu_seconds() -> float:
    """CPU time of this process and of every live child process it started
    (the server's workers), in seconds.

    The kernel charges the time the hypervisor gives other guests to steal,
    not to a process, so unlike wall time this does not grow when
    co-tenants take the host's CPUs.  Children are read from
    ``/proc/<pid>/stat``; a child that ends between two readings drops out.
    """
    import multiprocessing

    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / ticks
        except (OSError, IndexError, ValueError):
            continue
    return total


def check_comparable(old: dict, new: dict) -> None:
    """Raise :class:`FingerprintMismatch` naming every differing field."""
    keys = sorted(set(old) | set(new))
    differing = [key for key in keys if old.get(key) != new.get(key)]
    if differing:
        details = "; ".join(f"{key}: {old.get(key)!r} != {new.get(key)!r}"
                            for key in differing)
        raise FingerprintMismatch(
            f"records come from different hosts, refusing to compare "
            f"({details})")
