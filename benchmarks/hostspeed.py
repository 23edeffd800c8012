"""Host speed, measured next to each timing.

On a shared host the speed of each core changes by up to a factor of two
over seconds, as other tenants load it, and the process CPU time changes
with it.  The benchmark therefore times a fixed kernel, independent of the
program under test, and divides each measured time by the kernel's slowdown
against its reference time:

- a short call is bracketed by kernel runs in the measuring thread, which
  track the core the call ran on;
- a longer call, during which the cores change speed, is scaled by the
  mean slowdown that one sampler process per core, pinned to it, saw during
  the call: on the core its thread ran on for a single-threaded call, on
  every core for a stage whose threads move between cores.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Kernel time on the reference host (2-core x86_64, unloaded core); the
# reported times are seconds at that speed.
REFERENCE_S = 0.43e-3

_RNG = np.random.default_rng(0)
_X = _RNG.random(1 << 12)
_IDX = _RNG.integers(0, _X.size, 1 << 15)
_PTR = np.arange(0, _IDX.size, 8)


def _kernel():
    """A numpy gather/reduce and a Python loop, like the program's mix."""
    acc = 0.0
    for _ in range(3):
        acc += float(np.add.reduceat(_X[_IDX], _PTR).sum())
    for i in range(3000):
        acc += i * 1e-9
    return acc


def slowdown(runs=3):
    """Fastest of ``runs`` kernel timings over the reference time."""
    best = float("inf")
    for _ in range(runs):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best / REFERENCE_S


def current_cpu():
    """CPU the calling thread last ran on, or -1 when unknown."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            stat = fh.read()
        # fields after the parenthesised command name start at field 3;
        # "processor" is field 39
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


@dataclass(frozen=True)
class Timing:
    """One call: its start and end on the monotonic clock, which all
    processes share, its process CPU seconds, the mean slowdown of the
    measuring thread's core around it, and the CPUs that thread was on
    before and after the call."""

    start: float
    end: float
    cpu: float
    factor: float
    cpus: tuple = ()

    @property
    def wall(self):
        return self.end - self.start

    @property
    def scaled(self):
        """Wall seconds at reference speed, by the in-thread slowdown."""
        return self.wall / self.factor


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result and its ``Timing``."""
    before = slowdown()
    cpu_before = current_cpu()
    c = time.process_time()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    end = time.perf_counter()
    cpu = time.process_time() - c
    cpus = (cpu_before, current_cpu())
    return result, Timing(start, end, cpu, 0.5 * (before + slowdown()), cpus)


SAMPLER = """
import os, select, sys, time
try:
    os.sched_setaffinity(0, {int(sys.argv[2])})
except OSError:
    pass
sys.path.insert(0, sys.argv[1])
import hostspeed
print("ready", flush=True)
samples = []
while True:
    if select.select([sys.stdin], [], [], float(sys.argv[3]))[0]:
        command = sys.stdin.readline().strip()
        if command == "pause":
            command = sys.stdin.readline().strip()
        if command != "resume":
            break
        continue
    samples.append("%r,%r" % (time.perf_counter(), hostspeed.slowdown(runs=1)))
print(" ".join(samples))
"""


class CoreSamplers:
    """Context manager running one sampler process per CPU this process may
    use, each pinned to its CPU and timing the kernel every ``interval``
    seconds, which costs about one percent of a core."""

    def __init__(self, interval=0.05):
        self.interval = interval
        self.samples = {}
        self._procs = {}

    def __enter__(self):
        here = str(Path(__file__).resolve().parent)
        for cpu in sorted(os.sched_getaffinity(0)):
            self._procs[cpu] = subprocess.Popen(
                [sys.executable, "-c", SAMPLER, here, str(cpu),
                 str(self.interval)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for proc in self._procs.values():
            proc.stdout.readline()  # started, so its start-up is not timed
        return self

    def __exit__(self, *exc):
        for cpu, proc in self._procs.items():
            out, _ = proc.communicate("stop\n", timeout=60)
            self.samples[cpu] = [tuple(map(float, s.split(",")))
                                 for s in out.split()]
        self._procs.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        """No sampling inside: a short call timed in-thread would otherwise
        now and then include a sampler's turn on its core."""
        self._tell("pause")
        try:
            yield
        finally:
            self._tell("resume")

    def _tell(self, command):
        for proc in self._procs.values():
            proc.stdin.write(command + "\n")
            proc.stdin.flush()

    def factor(self, timing, cpus=None):
        """Mean slowdown sampled during ``timing`` on ``cpus`` (default:
        every CPU); the in-thread slowdown when no sampler saw the
        interval."""
        means = []
        for cpu, samples in self.samples.items():
            if cpus is not None and cpu not in cpus:
                continue
            inside = [f for t, f in samples if timing.start <= t <= timing.end]
            if inside:
                means.append(sum(inside) / len(inside))
        return sum(means) / len(means) if means else timing.factor

    def thread_factor(self, timing):
        """Slowdown during a single-threaded call, sampled on the CPUs its
        thread was on."""
        return self.factor(timing, cpus=set(timing.cpus))
