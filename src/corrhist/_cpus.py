"""Where this process runs: how many CPUs it may use, and placing a thread.

A host that does not balance load leaves a forked worker, or a second
thread, on the CPU of the one that started it, so the two take turns
instead of running at once.  ``casegraph`` places its case-graph workers
and ``snapshot_io`` the thread that gzips a snapshot early, each on a CPU
of its own.  Placement changes no output.
"""

from __future__ import annotations

import os
from typing import Sequence


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_mask() -> list[int]:
    """The CPUs the calling thread may run on, ascending, where the
    platform can place it; empty where it cannot."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _run_on(cpus: Sequence[int]) -> None:
    """Run the calling thread, which is the process where it has no other,
    on ``cpus`` only.  Where the kernel refuses, it keeps placing the
    thread as before."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass
