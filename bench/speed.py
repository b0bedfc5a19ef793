"""Machine-speed probe for a shared virtual machine.

On a shared 2-vCPU KVM guest (Intel Xeon, numpy 2.4.6), the CPU time of
a fixed piece of single-threaded work rises by up to 1.8x for stretches of
a few seconds while other guests load the host.  A timed block therefore
reports its CPU time scaled by how fast the machine was *while the block
ran*: `Timed` runs a fixed calibration kernel from a SIGPROF timer every
INTERVAL_S of CPU time, and the block's time is

    (cpu seconds - kernel seconds) * KERNEL_REF_S / mean(kernel seconds)

i.e. seconds at the speed at which the kernel takes KERNEL_REF_S.  The
kernel never changes, so a change to outflow1d moves the scaled time as it
moves the raw one on a quiet machine.
"""

from __future__ import annotations

import resource
import signal
import time

import numpy as np

INTERVAL_S = 0.02            # CPU seconds between kernel runs
KERNEL_REF_S = 1.25e-4       # kernel time on a quiet machine
TRIM = 0.05                  # share of samples dropped at each end
_ARR = np.linspace(0.0, 1.0, 2001)


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kernel_seconds() -> float:
    """Duration of one run of the fixed calibration kernel: small-array
    numpy calls between stretches of scalar Python, the mix the solver,
    the recorder and the layer ODE run.  Read from perf_counter: inside a
    SIGPROF handler the CPU-time clocks do not advance."""
    a = _ARR
    x = 0.0
    t0 = 0.0
    for i in range(9):                   # the first pass warms the cache
        if i == 1:
            t0 = time.perf_counter()
        d = a[1:] - a[:-1]
        y = np.where(d >= 0.0, a[1:], a[:-1]) * d
        for j in range(150):
            x += j * 0.5
        x += float(y[3])
    return time.perf_counter() - t0


def scale_factor(samples) -> float:
    """KERNEL_REF_S over the trimmed mean of the kernel samples.  A mean,
    not a median, so that a slow stretch covering part of a block counts
    in proportion; trimmed, so that one interrupted sample does not."""
    xs = sorted(samples)
    cut = int(TRIM * len(xs))
    xs = xs[cut:len(xs) - cut]
    return KERNEL_REF_S * len(xs) / sum(xs)


class Timed:
    """Time a block in CPU, wall and scaled seconds, running the kernel
    from a CPU-time timer (SIGPROF) while the block runs."""

    def _sample(self, *_args) -> None:
        self.samples.append(kernel_seconds())

    def __enter__(self) -> "Timed":
        self.samples: list = []
        self._sample()
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._c0, self._w0 = cpu_seconds(), time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        cpu_s = cpu_seconds() - self._c0
        wall_s = time.perf_counter() - self._w0
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old)
        inside = sum(self.samples[1:])           # kernel runs in the block
        self._sample()
        self.cpu_s = cpu_s - inside
        self.wall_s = wall_s - inside
        self.factor = scale_factor(self.samples)
        self.scaled_s = self.cpu_s * self.factor
