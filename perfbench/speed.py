"""A fixed reference kernel that measures how fast the core is at the
moment, and a meter that takes the core's speed out of a case's time.

The measuring machine's cores change speed by up to 1.8x in phases of
0.1 s to tens of seconds, also in the middle of a case (see README.md,
Noise). A stretch of work divided by the probe time around it does not
depend on the phase; multiplied by NOMINAL_S it is the stretch's time on
a core where the probe takes NOMINAL_S.

The kernel mixes what plskit's numpy backend does: a gather-and-sum over
a fixed sparse pattern, vector updates, a mask, a dot product, and the
Python calls between them. Its inputs come from a fixed seed, never from
the workload's seed, and it uses nothing from plskit, so a change to the
program cannot change the probe.
"""

import signal
import time

import numpy as np

# about the probe's time on a vCPU of the 2-vCPU VM the bounds were set on,
# in its fast phase; it only sets the scale of the reported seconds
NOMINAL_S = 1.25e-3
# shorter than the shortest speed phases, and long against the probe, which
# then costs 3-5% of a case
INTERVAL_S = 0.05

_N = 2500  # unknowns, as in a grid of N=50
_NNZ_PER_ROW = 5
_ROUNDS = 60


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20091217)
        self._x = rng.random(_N)
        self._cols = rng.integers(0, _N, _NNZ_PER_ROW * _N)
        for _ in range(3):  # first calls allocate and fault pages in
            self()

    def __call__(self):
        """Seconds of one run of the kernel."""
        start = time.perf_counter()
        y = self._x.copy()
        for _ in range(_ROUNDS):
            z = y[self._cols].reshape(_NNZ_PER_ROW, _N).sum(axis=0)
            y = 0.5 * y + 1e-3 * z
            y[y > 0.7] = 0.7
            float(y @ y)
        return time.perf_counter() - start


class Meter:
    """Times the work in a `with` block, probing the core when the block
    starts, every INTERVAL_S of wall time inside it (from a SIGALRM
    handler, so only in the main thread) and when it ends.

    Afterwards `seconds` is the block's time without the probes, `scaled`
    its time at NOMINAL_S (each stretch between two probes over their
    mean, times NOMINAL_S) and `probes` the probe times.
    """

    def __init__(self, probe):
        self._probe = probe
        self._marks = None  # (probe start, probe end, probe seconds)

    def _mark(self, *_):
        if self._marks is not None:
            start = time.perf_counter()
            took = self._probe()
            self._marks.append((start, time.perf_counter(), took))

    def __enter__(self):
        self._marks = []
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        self._mark()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._mark()
        marks, self._marks = self._marks, None
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = self.scaled = 0.0
        for (_, end, before), (start, _, after) in zip(marks, marks[1:]):
            self.seconds += start - end
            self.scaled += (start - end) * 2 * NOMINAL_S / (before + after)
        self.probes = [took for _, _, took in marks]
        return False
