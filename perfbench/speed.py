#!/usr/bin/env python3
"""Machine-speed probes, so timings can be reported at a reference speed.

On the shared two-vCPU machines the bounds were set on, the machine
changes speed under the benchmark: a fixed pure-Python loop takes 72 ms
or 126 ms from one second to the next, in CPU time as much as in wall
time, and the two vCPUs change independently of each other.  Raw
timings of the same work then spread 20-35% between runs.

So every process of the program under test samples its own speed while
it works.  Every ``PERIOD_CPU_S`` of a process's CPU time a ``SIGPROF``
handler times a fixed kernel of interpreter work and appends ``(start,
duration)`` to a probe file that all the processes share (forked
children re-arm the timer).  The duration is the thread's CPU time, so
a probe preempted by another process of the program -- contention the
program causes itself -- does not read as a slow machine.  A timing over an interval is then reported
at reference speed: multiplied by :meth:`Probes.factor`, which is
``REFERENCE_S`` over the mean probe duration in that interval.  Where a
probe takes ``REFERENCE_S``, reported and raw figures agree.  Probes
add about 2% of CPU time.

Run a module under probes (the service workload starts ``serve`` so)::

    python3 perfbench/speed.py PROBE_FILE repro.cli serve --port 0
"""

from __future__ import annotations

import atexit
import bisect
import os
import runpy
import signal
import struct
import sys
from pathlib import Path
from time import perf_counter, thread_time

#: CPU time between probes, per process.
PERIOD_CPU_S = 0.02

#: Iterations of the probe kernel (about 0.3-0.5 ms).
KERNEL_LOOPS = 1500

#: The probe's duration at reference speed: about its median on the
#: machine the bounds were set on, so there reported figures stay close
#: to raw ones.
REFERENCE_S = 0.4e-3

#: A factor is taken over at least this many probes (or all there are);
#: an interval with fewer borrows the nearest probes around it.
MIN_PROBES = 5

_RECORD = struct.Struct("<dd")
_fd: int | None = None


def kernel(loops: int = KERNEL_LOOPS) -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(loops):
        table[i & 255] = table.get(i & 255, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    return acc


def _sample(signum, frame) -> None:
    start, cpu0 = perf_counter(), thread_time()
    kernel()
    os.write(_fd, _RECORD.pack(start, thread_time() - cpu0))


def _arm() -> None:
    signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_CPU_S, PERIOD_CPU_S)


def _disarm() -> None:
    # Interpreter shutdown restores the default action of SIGPROF, which
    # is to terminate: stop the timer first.
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def install(path: Path) -> None:
    """Probe this process, and every process it forks, into ``path``."""
    global _fd
    if _fd is not None:
        raise RuntimeError("speed probes are already installed in this process")
    _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    _arm()
    os.register_at_fork(after_in_child=_arm)
    atexit.register(_disarm)  # forked children inherit it


class Probes:
    """The samples of one probe file, sorted by start time."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.samples: list[tuple[float, float]] = []

    def refresh(self) -> "Probes":
        data = self.path.read_bytes() if self.path.exists() else b""
        size = _RECORD.size
        self.samples = sorted(_RECORD.unpack_from(data, k) for k in range(0, len(data) - size + 1, size))
        return self

    def factor(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """``REFERENCE_S`` over the mean probe duration in ``[t0, t1]``.

        Multiply a duration measured over the interval by it to get the
        duration at reference speed; divide a rate by it.  With no probe
        at all (the processes used under ``PERIOD_CPU_S`` of CPU) the
        factor is 1.
        """
        samples = self.samples
        if not samples:
            return 1.0
        lo = bisect.bisect_left(samples, (t0, float("-inf")))
        hi = bisect.bisect_right(samples, (t1, float("inf")))
        while hi - lo < min(MIN_PROBES, len(samples)):
            # Borrow the nearer neighbour, or whichever side has one left.
            before = samples[lo - 1][0] if lo > 0 else None
            after = samples[hi][0] if hi < len(samples) else None
            if after is None or (before is not None and t0 - before <= after - t1):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S * (hi - lo) / sum(duration for _, duration in samples[lo:hi])


def main(argv: list[str]) -> None:
    if len(argv) < 2:
        raise SystemExit(__doc__)
    install(Path(argv[0]))
    sys.argv = [argv[1], *argv[2:]]
    runpy.run_module(argv[1], run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
