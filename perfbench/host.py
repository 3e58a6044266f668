"""The host a run measured on: its speed right now, and its provenance.

The benchmark shares a 2-core machine whose speed drifts by a third over
minutes (other tenants' load).  Host times are therefore reported at a
reference speed: before and after each timed call the benchmark times a
fixed pure-Python kernel, and scales the call's time by the ratio of the
kernel's nominal time to its mean measured time, raised to
:data:`ELASTICITY`.  The kernel runs the interpreter operations the
simulator spends its time in (heap pushes and pops, small objects, dict
updates) and imports nothing from ``repro``, so a change to the program
cannot change it; a change that slows the whole interpreter (a trace hook,
garbage-collector settings) would slow both and be hidden.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import platform
import random
import statistics
import time
from dataclasses import dataclass
from typing import Optional

#: Nominal wall time of one kernel call; host times are scaled to it.
KERNEL_NOMINAL_S = 0.05
#: Kernel calls per speed reading (its median is the reading).
KERNEL_CALLS = 5
#: How far a workload's host time follows the kernel's, in log terms.  The
#: slope of log call time on log kernel time was 0.60 to 0.73 across single
#: calls of the three workloads without file output and 0.33 for
#: ``chord-lookup-obs``, which writes a trace file.  Over 12 sets of 10 runs
#: (3 sets per workload) the spread (IQR over median) of the run medians
#: averaged 13.2% unscaled (at most 26.5%), 7.0% scaled with 0.6, 6.2% with
#: 0.75 (at most 11.5%) and 6.3% with 1 (at most 12.6%).
ELASTICITY = 0.75


class _Event:
    __slots__ = ("time", "key")

    def __init__(self, time: float, key: int) -> None:
        self.time = time
        self.key = key


def kernel(events: int = 6000) -> int:
    """A small event loop: 4 x *events* heap pops with dict bookkeeping."""
    rng = random.Random(7)
    heap = [(rng.random(), i, _Event(0.0, i)) for i in range(events)]
    heapq.heapify(heap)
    counts: dict = {}
    done = 0
    while heap:
        when, key, event = heapq.heappop(heap)
        counts[event.key % 101] = counts.get(event.key % 101, 0) + 1
        event.time = when
        if done < 3 * events:
            heapq.heappush(heap, (when + rng.random(), key + events,
                                  _Event(when, key + events)))
        done += 1
    return done


@dataclass(frozen=True)
class Speed:
    """One reading: median wall and CPU time of the kernel."""

    wall: float
    cpu: float


def speed() -> Speed:
    walls, cpus = [], []
    for _ in range(KERNEL_CALLS):
        cpu = time.process_time()
        start = time.perf_counter()
        kernel()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
    return Speed(statistics.median(walls), statistics.median(cpus))


@dataclass(frozen=True)
class Sample:
    """Host time of one timed call, between two speed readings."""

    wall: float
    cpu: float
    before: Speed
    after: Speed

    @property
    def kernel_s(self) -> float:
        """The kernel's wall time around the call (mean of both readings)."""
        return (self.before.wall + self.after.wall) / 2

    @property
    def scale(self) -> float:
        """Factor from this call's wall time to reference speed."""
        return (KERNEL_NOMINAL_S / self.kernel_s) ** ELASTICITY

    @property
    def wall_s(self) -> float:
        """Wall time at reference speed."""
        return self.wall * self.scale

    @property
    def cpu_s(self) -> float:
        """CPU time at reference speed."""
        kernel_cpu = (self.before.cpu + self.after.cpu) / 2
        return self.cpu * (KERNEL_NOMINAL_S / kernel_cpu) ** ELASTICITY


class Timer:
    """Times calls, reading the host's speed before and after each one.

    Consecutive calls share the reading between them, so bracketing costs
    one reading per call.
    """

    def __init__(self) -> None:
        self.reading = speed()

    def call(self, fn, *args):
        """``fn(*args)`` and its :class:`Sample`."""
        gc.collect()
        cpu = time.process_time()
        start = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        after = speed()
        sample = Sample(wall, cpu, self.reading, after)
        self.reading = after
        return value, sample


def source_digest(src: str) -> str:
    """SHA-256 over the ``.py`` and ``.mac`` files under *src*."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".mac")):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_rev(root: str) -> Optional[str]:
    """HEAD of *root*, or None when it is not a git checkout.

    Read from the files under ``.git`` rather than by running ``git``, so
    that the benchmark starts no process.
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        packed = os.path.join(git, "packed-refs")
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()
