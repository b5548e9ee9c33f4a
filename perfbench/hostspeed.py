"""Host-speed probes, used to put times on one scale.

The benchmark's host is a share of a larger machine, and how fast one of its
CPUs runs a given piece of code changes by half within a second as other
tenants come and go.  On the 2-CPU host the benchmark was written on, a
Python probe read about 6.5 ms or about 9.5 ms by its thread's CPU clock,
each CPU switching between the two on its own every second or so (the two
CPUs' per-second medians correlated at 0.39 over 30 s), and lattice passes
took 4.8 to 6.5 s of wall time (5.0 to 6.2 s of CPU time, so it is not time
the hypervisor takes away).

A probe is a fixed kernel that never calls ringbench, so no change to the
program moves it.  A Sampler runs one from a SIGALRM handler every PERIOD_S
of wall time, so it runs in the timed thread, on whichever CPU that thread
is on at the moment.  An op that runs in pool workers is probed by one
process bound to each CPU (cpu_prober, started by run.py) instead.  The
work done in a stretch of time is proportional to the mean of ref / probe
over the samples in it, which makes

    normalised time = (wall time - time in the handler) * mean(ref / probe)

the stretch's time on a CPU where the probe takes ref, its time on an
undisturbed CPU of the 2-CPU host.

Contention slows some code more than other code, so each workload has the
kernel whose slowdown tracked its own best (workloads.PROBE_KERNEL).  Over
eight passes in one process, log pass time against log mean(1 / probe) had
these slopes, 1 being a perfect match:

    kernel        lattice  suite  classify  search (2 workers)
    interp           1.05   0.79      0.56   0.66
    small_array      1.43   0.91      0.62   0.79
    gather           2.30   1.16      0.86   1.14

The kernels never call ringbench, and their data is small or brought back
into cache before timing, so a change to the program moves the factor only
through what it leaves in caches the probe shares; a good match of kernel
and workload only narrows the spread.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import sys
import time

import numpy as np

PERIOD_S = 0.1


def _interp() -> int:
    """The Python interpreter: integer bit operations and dict stores."""
    x, mask, seen = 0, 0, {}
    for i in range(9000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
        mask |= 1 << (x & 1023)
        seen[i & 1023] = x
    return x ^ mask.bit_count() ^ len(seen)


def _small_array() -> int:
    """numpy fancy indexing on a 32 KB int64 table, which stays in cache."""
    table = np.arange(4096, dtype=np.int64).reshape(64, 64)
    for _ in range(240):
        table = (table[table[:, 3] % 64] ^ table.T) & 4095
    return int(table[0, 0])


def _gather_inputs() -> tuple[np.ndarray, np.ndarray]:
    """The gather kernel's table and indices."""
    rng = np.random.default_rng(0)
    table = rng.integers(0, 1 << 20, size=1 << 21)
    return table, rng.integers(0, 1 << 21, size=1 << 15)


def _gather(table: np.ndarray, idx: np.ndarray, rounds: int = 16) -> int:
    """numpy random gathers of the same 32768 elements of a 16 MB int64
    table, 2 MB of cache lines: about a core's L2."""
    return sum(int(table[idx].sum()) for _ in range(rounds))


# kernel -> (function, seconds on an undisturbed CPU of the 2-CPU host)
KERNELS = {"interp": (_interp, 0.0028),
           "small_array": (_small_array, 0.0028),
           "gather": (_gather, 0.0026)}


class Probe:
    """One kernel, timed by this thread's CPU clock.  CPU time, not wall
    time: a prober that shares a CPU with a pool worker waits for it, and
    that wait says nothing about the CPU's speed."""

    def __init__(self, kernel: str):
        self.fn = KERNELS[kernel][0]
        self.inputs: tuple = ()   # the gather kernel's, made on first use

    def drop_inputs(self) -> None:
        self.inputs = ()

    def __call__(self) -> float:
        """CPU seconds of one run.  The gather kernel first brings its lines
        back into cache, untimed, so that what the program left in the
        caches moves the probe as little as it can."""
        if self.fn is _gather:
            self.inputs = self.inputs or _gather_inputs()
            _gather(*self.inputs, rounds=1)
        t0 = time.thread_time()
        self.fn(*self.inputs)
        return time.thread_time() - t0


def factor(kernel: str, samples: list[float]) -> float | None:
    """mean(ref / probe) over the kernel's samples; None for no samples."""
    ref = KERNELS[kernel][1]
    return statistics.fmean(ref / p for p in samples) if samples else None


class Sampler:
    """Probes every PERIOD_S from a SIGALRM handler in the main thread, and
    keeps the samples and the wall time spent in the handler, so a timed
    stretch can leave that time out and be normalised by the samples made
    within it."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.probe = Probe(kernel)
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick during a slow probe: let that probe finish
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.handler_s += time.perf_counter() - t0
        self._busy = False

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No probes while an op runs in pool workers: this thread only waits
        for them then, and the CPU it would wake on says little about
        theirs.  run.py probes each CPU from its own process instead.  The
        gather table is dropped, or every forked worker would count it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe.drop_inputs()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def mark(self) -> tuple[int, float]:
        """A point to measure from: (samples, handler seconds) so far."""
        return len(self.samples), self.handler_s

    def add(self, n: int) -> None:
        """n probes now, outside any timed stretch."""
        self._busy = True
        self.samples.extend(self.probe() for _ in range(n))
        self._busy = False

    def factor(self, since: tuple[int, float]) -> float | None:
        """factor() of the samples made since the mark."""
        return factor(self.kernel, self.samples[since[0]:])

    def handler_since(self, since: tuple[int, float]) -> float:
        return self.handler_s - since[1]


def cpu_prober(cpu: int, kernel: str) -> None:
    """Bind to one CPU and print "<time.monotonic()> <probe>" every
    PERIOD_S until killed.  CLOCK_MONOTONIC is the same in every process,
    so the samples can be matched to an op's time window."""
    os.sched_setaffinity(0, {cpu})
    probe = Probe(kernel)
    while True:
        time.sleep(PERIOD_S)
        p = probe()
        print(f"{time.monotonic()!r} {p!r}", flush=True)


if __name__ == "__main__":
    cpu_prober(int(sys.argv[1]), sys.argv[2])
