"""Host-speed correction: a fixed reference kernel timed all through a run.

On a shared host the CPU alternates between speeds about 1.8x apart, in
phases of a second to minutes, and every time the benchmark takes moves
with it. So while the untraced run sets up and measures, an interval
timer runs this kernel every PROBE_INTERVAL_S seconds (from a signal
handler, between two bytecodes of whatever the main thread is running)
and records how long it took. Each stretch of time between two probes is
then counted at the reference speed: its length times ``REF_MS`` over the
mean of the two probes around it; the probes' own time is left out. A
change to molsets moves the stretches and not the kernel, so it shows in
full; a slow phase of the host moves both and cancels out.

The kernel is the benchmark's own code and never calls molsets. It does
the kind of work molsets does: small dense numpy operations under Python
dispatch, closures replayed in reverse like a gradient tape, and
character-by-character string scanning like the SMILES parser.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# The kernel's time on the reference machine (2 vCPU Intel Xeon, Python
# 3.11, numpy 2.4, one BLAS thread) in its fast phase. Corrected times
# read in ms of that machine at that speed.
REF_MS = 0.87
PROBE_INTERVAL_S = 0.05

_W = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 8.0
_TEXT = "CCOC(=O)OCC.[Li+].F[P-](F)(F)(F)(F)F" * 60


def kernel() -> float:
    x = np.linspace(0.0, 1.0, 32)[None, :]
    tape = []
    for _ in range(150):
        h = np.tanh(x @ _W)
        tape.append(lambda g, h=h: (g * (1.0 - h * h)) @ _W.T)
        x = h + 0.01
    g = np.ones_like(x)
    for grad_fn in reversed(tape):
        g = grad_fn(g)
    counts: dict[str, int] = {}
    depth = 0
    for ch in _TEXT:
        counts[ch] = counts.get(ch, 0) + 1
        depth += (ch == "(") - (ch == ")")
    return float(g.sum()) + len(counts) + depth


class SpeedProbe:
    """Times the kernel on an interval timer between start() and stop(),
    and converts wall-clock intervals of that span to reference time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_ms: list[float] = []
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_ms.append((t1 - t0) * 1e3)

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed length of the wall-clock interval [a, b]: each gap
        between probes i and i + 1 counts at REF_MS over their mean time,
        and time inside a probe does not count."""
        total = 0.0
        i = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while i < len(self.ends) and self.ends[i] < b:
            gap_end = self.starts[i + 1] if i + 1 < len(self.starts) else b
            overlap = min(b, gap_end) - max(a, self.ends[i])
            if overlap > 0:
                local = self.kernel_ms[i] if i + 1 == len(self.starts) else (
                    self.kernel_ms[i] + self.kernel_ms[i + 1]) / 2
                total += overlap * REF_MS / local
            i += 1
        return total
