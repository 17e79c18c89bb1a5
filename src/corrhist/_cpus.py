"""One helper beside its caller, each on a CPU of its own.

``casegraph`` forks one case-graph worker, and ``snapshot_io`` starts one
thread that gzips a snapshot early, where this process may use two CPUs
or more.  A host that does not balance load leaves such a helper on the
CPU of the one that started it, so the two take turns instead of running
at once.  ``_beside`` therefore runs the caller on the first CPU of its
mask and gives the helper the call that moves it to the second.  Where
the platform cannot place, or the kernel refuses, nothing moves.
Placement changes no output.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Sequence


def _cpu_mask() -> list[int]:
    """The CPUs this process may run on, ascending: its affinity mask, or
    every CPU of the host where the platform has none."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _run_on(cpus: Sequence[int]) -> None:
    """Run the calling thread, which is the process where it has no other,
    on ``cpus`` only.  Where the platform cannot place it, or the kernel
    refuses, it keeps running where it did."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


@contextmanager
def _beside(cpus: Sequence[int]) -> Iterator[Callable[[], None]]:
    """Run the caller on ``cpus[0]`` while the block runs, and yield the
    call with which one helper, a thread or a forked child, moves itself
    to ``cpus[1]``.  The caller waits for its helper inside the block;
    however the block ends, the caller then runs on ``cpus`` again."""
    _run_on(cpus[:1])
    try:
        yield partial(_run_on, cpus[1:2])
    finally:
        _run_on(cpus)
