"""Host facts recorded with every run, and peak resident memory.

Timings on a shared virtual machine drift with the host, not with the
program, so each run prints what it ran on and the time of one fixed
piece of work (the workload's probe).  These are facts, not metrics: the
driver never compares them.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(kernel_backend: str, nn_backend: str) -> dict:
    """Cores, CPU, library versions and the backends the workload uses."""
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernel_backend,
        "nn_backend": nn_backend,
        "pool_start_method": multiprocessing.get_start_method(allow_none=False),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child
    (pool workers), in MiB.  Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
