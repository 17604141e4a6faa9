"""A fixed reference kernel that measures how fast a process runs.

The benchmark's host is shared with other guests.  A fresh process on it
runs up to 2x slower or faster than the one before, and mostly keeps that
speed for its whole life; the host also goes through slower and faster
phases lasting minutes.  ``child.py`` therefore runs this kernel in the
same process just before it imports the program and again right after the
timed CLI run, and ``run.py`` divides the child's times by the kernel's
slowdown, so that a process or a phase that slows both does not show as a
change of the program.

The kernel uses no dispersive_sw code and runs with the garbage collector
off, so the objects the program left behind do not enter its time: a
change to the program cannot move it, only the machine can.  It loads and
executes a marshalled module of small functions, the work an import does.
Of the kernels tried in children of ``bbm_soliton_relaxed`` and
``sk_dingemans_gauges`` (interpreter loops, numpy stencils, a dense
matrix-vector product, an 8 MiB copy, fresh allocations, this one, and
this one before, after and around the run), this one around the run
tracked their times most closely.

Only builtin modules are imported here: anything else would be loaded
before the timed import of the program and hide part of its cost.
"""

import gc
import marshal
import time

#: seconds of one chunk on the reference machine (2-vCPU KVM guest, x86_64,
#: Python 3.11), the median over many children; a slowdown of 1 means the
#: process ran as fast as that
REFERENCE_CHUNK_S = 9.4e-4

#: seconds of chunks a child runs before the import and again after the run
CALIBRATE_S = 0.25

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    c = a + b * {i}\n    return [c, {{'k': c}}, (a, b)]\n"
    for i in range(200)
)
_CODE = marshal.dumps(compile(_SOURCE, "<reference>", "exec"))


def chunk() -> float:
    """Seconds taken by one fixed piece of reference work."""
    start = time.perf_counter()
    for _ in range(5):
        namespace = {}
        exec(marshal.loads(_CODE), namespace)
        namespace.clear()  # frees the functions, which refer to the namespace
    return time.perf_counter() - start


def chunk_times(seconds: float) -> list:
    """Times of the chunks run over about `seconds`, at least one chunk."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            times.append(chunk())
    finally:
        if enabled:
            gc.enable()
    return times


def slowdown(times) -> float:
    """Median chunk time over the reference: 1.3 means 30 % slower."""
    ordered = sorted(times)
    middle = len(ordered) // 2
    median = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return median / REFERENCE_CHUNK_S
