"""Op times at a reference host speed.

Shared hosts change speed by up to 2x within seconds (on a 2-vCPU virtual
machine a fixed CPU loop measured 1.0 ms and 2.0 ms in neighbouring
5-second windows), so raw wall times of one run can differ from the next by
more than any useful regression bound.  The worker therefore measures the
host's speed all through a run.  A Sampler lets a timer signal interrupt the
worker every INTERVAL_S, between two bytecodes of whatever runs, and times a
probe: a fixed piece of work of about 0.5 ms, written here and never changed
by the program under test.  It mixes Fraction arithmetic and permutation
work, because each alone follows the host's speed for only some of the
workloads.  An op's reported time is its wall time scaled by REFERENCE_S over
the median of the probes taken while it ran, widened to the MIN_PROBES
nearest ones for a short op: the time it would take on a host where the
probe takes exactly REFERENCE_S.  A slower program still reads slower; a
slower host does not.  Probes are taken inside long ops because one probe
before an op says little about the host's speed a second later: for a
near-identity ``cover find`` of about 1 s, scaling by a probe before it left
the spread of 40 repeats as wide as the raw times' (log sd 0.20 and 0.19),
and scaling by probes inside it (0.1 ms every 5 ms in that test) cut it
to 0.11.

Set-up (process start and import) does not follow that probe: it is
reading and executing module bodies, whose dataclasses compile generated
code.  It has its own, calibrate_import(), which compiles and executes a
fixed module of dataclasses; set-up times are scaled by IMPORT_REFERENCE_S
over it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.0005
IMPORT_REFERENCE_S = 0.01
INTERVAL_S = 0.02
MIN_PROBES = 9

_N = 6
_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (_N if i == j else 0) for j in range(_N)]
    for i in range(_N)
]
_POINTS = 40
_MODULE = "\n".join(
    f"@dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: str = ''\n    c: tuple = ()\n\n"
    f"    def f(self, x):\n        return [y * {i} for y in range(x) if y % 3]\n"
    for i in range(12)
)


def probe() -> float:
    """Wall time of a fixed piece of work like the workloads' own: a
    Fraction elimination, as in exact_linalg, and permutation sampling and
    composition, as in covers."""
    start = time.perf_counter()
    m = [row[:] for row in _MATRIX]
    for k in range(_N):
        for i in range(k + 1, _N):
            factor = m[i][k] / m[k][k]
            for j in range(k, _N):
                m[i][j] -= factor * m[k][j]
    rng = random.Random(1)
    perm = list(range(_POINTS))
    for _ in range(4):
        other = rng.sample(range(_POINTS), _POINTS)
        perm = [other[i] for i in perm]
    return time.perf_counter() - start


class Sampler:
    """Takes a probe every INTERVAL_S while entered; ``scale`` turns them
    into an op's scale factor.  Uses SIGALRM, so only in the main thread."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.times.append(time.perf_counter())
        self.probes.append(probe())

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(signal.SIGALRM, None)  # so that ``scale`` always has a probe

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe taken between ``start`` and
        ``end``, widened on both sides to at least MIN_PROBES probes."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return REFERENCE_S / statistics.median(self.probes[lo:hi])


def calibrate_import() -> float:
    """Wall time of compiling and executing a fixed module of twelve
    dataclasses (about 10 ms), work like an import's."""
    start = time.perf_counter()
    code = compile(_MODULE, "<calibration>", "exec", dont_inherit=True)
    exec(code, {"dataclass": dataclass, "__name__": __name__})
    return time.perf_counter() - start
