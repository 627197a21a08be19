"""Machine speed next to the workload, so that times can be given in
seconds of a reference-speed machine.

On a shared host, each CPU of a small VM can change speed by a third and
more, in CPU time as well as wall time, for seconds to minutes at a time.
Two runs of the same code an hour apart can then differ by more than any
bound worth having.  Each run therefore also times a fixed piece of
reference work that does not touch `kwlab` (`reference_work`): rational
arithmetic, longdouble scalars, small matrix products, small and large
dicts, ufuncs on small arrays and float math, in equal parts.  No one kind
of work slows down in the same proportion as every workload does; an even
mix of the kinds the workloads do comes closest on average.  A time
measured over an interval is scaled by
`REF_WORK_S / (reference time during it)`.

The benchmark pins itself to one CPU, so that its children run there, and
starts a *sampler* process on the same CPU.  The sampler times one piece
of reference work every `TICK_PERIOD_S` (a *tick*, about a twentieth of
the CPU) until it is told to stop.  A tick is timed in the sampler's own
CPU time, so a child's share of the CPU does not count in it, and the CPU
time of the ticks is taken off the child's wall time.  The sampler is a
process of its own so that the benchmark's process stays small: a child's
`ru_maxrss` counts the memory of the process that started it.

    python3 perfbench/speed.py TICKS_FILE

runs a sampler until its standard input is closed.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time

# Time of one piece of reference work on the reference machine, which is
# roughly a 2-core Xeon VM with Python 3.11 and numpy 2.4 when its host is
# quiet.  Times scaled by the meter are in seconds of that machine.
REF_WORK_S = 0.004
TICK_PERIOD_S = 0.1
# Ticks up to this long before or after an interval count for it, so that
# a short interval has enough of them.
MARGIN_S = 1.0


class Meter:
    """The ticks of one run, and the scaling they give.  Use it as a
    context manager: the sampler is stopped and waited for on every way
    out, and the ticks can be read after that."""

    def __init__(self, run_dir: str):
        self.ticks = []  # (start, CPU seconds)
        cpus = os.sched_getaffinity(0)
        self.nproc = len(cpus)  # before pinning
        self.cpu = min(cpus)
        self._path = os.path.join(run_dir, "ticks.txt")
        self._proc = None

    def __enter__(self):
        os.sched_setaffinity(0, {self.cpu})  # inherited by every child
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self._path],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
        give_up = time.perf_counter() + 10.0
        while time.perf_counter() < give_up and self._proc.poll() is None:
            if os.path.exists(self._path) and os.path.getsize(self._path):
                break  # ticking
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()  # the sampler's signal to stop
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        try:
            with open(self._path) as fh:
                rows = [line.split() for line in fh]
        except OSError:
            rows = []
        # A sampler killed while writing leaves a short last line.
        self.ticks = [(float(t), float(s)) for t, s in
                      (r for r in rows if len(r) == 2)]
        return False

    def busy_s(self, spans: list) -> float:
        """Wall time of the (start, end) spans less the CPU time of the
        ticks made in them."""
        return sum(t1 - t0 - sum(s for t, s in self.ticks if t0 <= t <= t1)
                   for t0, t1 in spans)

    def work_s(self, t0: float, t1: float) -> float:
        """Reference time of one piece during [t0, t1]: the median of the
        ticks in it, widened by MARGIN_S."""
        near = [s for t, s in self.ticks if t0 - MARGIN_S <= t <= t1 + MARGIN_S]
        if not near:
            raise RuntimeError("no reference ticks near a timed interval")
        return statistics.median(near)

    def scaled_s(self, spans: list) -> float:
        """busy_s(spans) in seconds of the reference machine."""
        return (self.busy_s(spans) * REF_WORK_S
                / self.work_s(spans[0][0], spans[-1][1]))


def reference_work(np, data):
    from fractions import Fraction
    from math import exp, sin

    big, keys, arr = data
    s = Fraction(0)  # rational arithmetic
    for i in range(1, 85):
        s += Fraction(i, i * i + 1) * Fraction(3, 7)
    x, acc, half = np.longdouble(0.1), np.longdouble(0), np.longdouble(0.5)
    for _ in range(2000):  # longdouble scalars
        acc += x * x - half * acc
    m, eye = np.arange(9.0).reshape(3, 3), np.eye(3)
    for _ in range(175):  # 3x3 matrix products
        m = (m @ m.T) * 1e-3 + eye
    d = {}
    for i in range(3500):  # small dict updates
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    b = 0.0
    for k in keys:  # scattered lookups in a large dict
        b += big[k]
    a = arr
    for _ in range(120):  # ufuncs on small arrays
        a = np.sqrt(a * a + 1e-3) * 0.5 + np.exp(-a)
    f = 0.0
    for i in range(2600):  # float math
        t = i * 1e-3
        f += exp(-t) * sin(t) / (1.0 + t * t)
    return s, acc, m, d, b, a, f


def sample(path: str) -> int:
    """Tick every TICK_PERIOD_S until standard input closes; each line of
    `path` is `start cpu_seconds`."""
    import numpy as np

    data = ({i * 7919: float(i) for i in range(200000)},  # beyond the L2 cache
            [(i * 2654435761) % 200000 * 7919 for i in range(1000)],
            np.linspace(0.0, 1.0, 16))
    with open(path, "w", buffering=1) as fh:
        while True:
            t0, c0 = time.perf_counter(), time.thread_time()
            reference_work(np, data)
            fh.write(f"{t0!r} {time.thread_time() - c0!r}\n")
            ready, _, _ = select.select([sys.stdin], [], [], TICK_PERIOD_S)
            if ready and not os.read(sys.stdin.fileno(), 4096):
                return 0


if __name__ == "__main__":
    sys.exit(sample(sys.argv[1]))
