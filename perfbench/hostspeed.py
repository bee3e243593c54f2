"""Host-speed sampling, to report times at a fixed reference speed.

The benchmark host is shared: the same pure-Python work runs up to about
1.5x slower in some stretches than in others, and the stretches come and
go on every time scale from a second to minutes.  No run length averages
that away, so the benchmark measures the host's speed alongside vosa.

`Sampler` arms a wall-clock interval timer.  On every tick the signal
handler runs `kernel`, a fixed piece of pure-Python work with no vosa
code in it (big-integer sparse-row arithmetic in dicts keyed by tuples:
the operations vosa spends its time on), and records how long it took.
The samples fall evenly over the jobs, so their mean is the host's speed
over exactly the interval the jobs ran in.  `normalize` removes the
sampling time from a measured interval and scales the rest to
`REF_KERNEL_S`, the kernel's time inside a pass in a quiet stretch: the
result reads "seconds at the reference speed".  When vosa gets faster or slower, the normalized time moves by
the same factor; when the host does, it does not.

The kernel is part of the benchmark, not of vosa, so a change to vosa
cannot change it.  Sampling costs about 3% of the measured time.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.03
# the kernel's time inside a pass on the reference host (2 vCPUs, Intel
# Xeon 2.1 GHz, Python 3.11) in a quiet stretch
REF_KERNEL_S = 0.0010

_rng = random.Random(0)
# sparse vectors with big-integer entries, keyed by (index, degree) pairs
_ROWS = [{(_rng.randrange(400), _rng.randrange(9)): _rng.randrange(1, 10**30)
          for _ in range(120)} for _ in range(8)]


def kernel() -> int:
    """Fixed work: the operations of exact row reduction.

    Subtracts big-integer multiples of sparse rows from an accumulator
    dict, dropping entries that cancel, then probes it for membership.
    Of the kernels tried, this one followed vosa's own slowdowns on the
    shared host most closely (correlation 0.99, slope 1.0 in log-log
    over passes of cli_defaults and represent).
    """
    out: dict = {}
    for c in (3, -5, 7, 11):
        for row in _ROWS:
            for k, x in row.items():
                y = out.get(k, 0) - c * x
                if y:
                    out[k] = y
                else:
                    out.pop(k, None)
    return sum(k in out for row in _ROWS for k in row)


class Sampler:
    """Runs `kernel` on every timer tick and keeps running totals."""

    def __init__(self):
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.cpu_s += time.process_time() - c0
        self.wall_s += time.perf_counter() - w0
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.count, self.wall_s, self.cpu_s


def normalize(raw_s: float, since: tuple, until: tuple, *, cpu=False,
              fallback: tuple | None = None) -> float:
    """`raw_s`, measured between marks `since` and `until`, at the
    reference speed.

    With `cpu`, `raw_s` is process CPU time and the kernel's CPU time is
    used.  An interval too short to hold a sample takes its speed from
    the marks `fallback` (a wider interval around it), if that holds
    one; with no samples at all, `raw_s` is returned unchanged.
    """
    k = 2 if cpu else 1
    spent = until[k] - since[k]
    per_kernel = REF_KERNEL_S  # no samples at all: tracing, say
    for a, b in [(since, until)] + ([fallback] if fallback else []):
        if b[0] > a[0]:
            per_kernel = (b[k] - a[k]) / (b[0] - a[0])
            break
    return (raw_s - spent) * REF_KERNEL_S / per_kernel
