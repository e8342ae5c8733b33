"""How fast the CPU running the benchmark's child is, sampled while it runs.

On a host whose cores are shared with other tenants, their load changes a
core's speed by up to a third, in stretches that last minutes (README.md
has the measurements).  A run lasts about a minute, so a longer run cannot
average that away.

SpeedProbe is a thread of the benchmark process.  Every PERIOD_S, while a
child runs, it moves itself onto the CPU that child runs on and times a
fixed pure-Python loop of about 2 ms there.  The end-to-end times of a run
are then given at the reference speed: each measured time is multiplied by
scale() = REF_S / (the median loop time of the run).  The loop never runs
program code, so a change to the program cannot move it; it takes about
0.5% of the child's CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter

#: Seconds between two samples.
PERIOD_S = 0.5
#: Iterations of the timed loop.
LOOP = 20_000
#: The reference speed: the loop's median time on the machine the baseline
#: in README.md was measured on.  It sets the unit only; every run uses it.
REF_S = 0.0019


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def _cpu_of(pid: int) -> int | None:
    """The CPU process `pid` last ran on (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class SpeedProbe:
    """Use as a context manager; run_child sets `pid` while a child runs."""

    def __init__(self) -> None:
        self.pid: int | None = None
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        tid = threading.get_native_id()
        while not self._stop.wait(PERIOD_S):
            pid = self.pid
            cpu = _cpu_of(pid) if pid is not None else None
            if cpu is None:
                continue
            try:
                os.sched_setaffinity(tid, {cpu})
            except OSError:  # a CPU this process may not use: no sample
                continue
            start = perf_counter()
            _loop()
            self.samples.append(perf_counter() - start)

    def scale(self) -> float:
        return REF_S / statistics.median(self.samples)
