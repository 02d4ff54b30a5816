"""Timing machinery shared by every workload: host-drift calibration,
round bookkeeping, percentiles and peak memory.

Calibration
-----------
This host's speed drifts by tens of percent within a minute, so a raw
timing says as much about the neighbours as about the program.  Every
timed round is therefore bracketed by :func:`reference_work`, a fixed
pure-Python computation that uses no repository code, and the round's
duration is scaled by ``NOMINAL_REFERENCE_S / mean(reference before,
reference after)``.  Calibrated times are "seconds of this host at its
reference speed".  The reference runs only while the program is
quiescent (after a full drain, with no child process or background
thread busy).

``reference_work``, ``time_reference`` and ``NOMINAL_REFERENCE_S``
must never change: a change to any of them rescales every calibrated
number and breaks the comparison with earlier runs.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Nominal reference timing (see :func:`time_reference`), in seconds.
NOMINAL_REFERENCE_S = 0.001

_REFERENCE_ITERATIONS = 800
#: A reference timing is the fastest of this many back-to-back runs,
#: which drops the runs an interrupt or a preemption happened to hit.
_REFERENCE_REPEATS = 3

#: Peak memory is read after this many rounds: a fixed amount of work,
#: so the figure does not grow with the host's speed.
MEMORY_ROUNDS = 64


def reference_work() -> int:
    """The fixed reference computation: the program's kind of work
    (string formatting, tuples, dicts of lists, a keyed sort)."""
    rows = []
    index: dict[str, list[int]] = {}
    for i in range(_REFERENCE_ITERATIONS):
        path = "/ref/d%d/f%d" % (i % 37, i)
        row = (i, path, path.rsplit("/", 1)[0])
        rows.append(row)
        index.setdefault(row[2], []).append(i)
    rows.sort(key=lambda row: row[1])
    return len(index) + rows[-1][0]


def time_reference() -> float:
    """One reference timing, in seconds: the fastest of a few runs."""
    best = float("inf")
    for _ in range(_REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Calibrator:
    """Brackets timed regions with reference runs and scales them."""

    timings: list[float] = field(default_factory=list)

    def reference(self) -> float:
        """Run the reference once (program quiescent) and record it."""
        elapsed = time_reference()
        self.timings.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Factor turning raw seconds into reference-speed seconds."""
        return NOMINAL_REFERENCE_S / ((before + after) / 2.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_samples(count: int, q: float) -> int:
    """How many samples lie beyond the q-th percentile of *count*."""
    return count - max(1, math.ceil(q / 100.0 * count))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus its shard processes, in MB.

    Live children (the shard processes of ``durable``) count through
    ``VmHWM`` in ``/proc``; if none is alive, the largest reaped child
    counts through ``RUSAGE_CHILDREN``.  Linux reports both in KiB.
    """
    import multiprocessing

    live = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        live += int(line.split()[1])
        except OSError:
            pass  # exited between listing and reading
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(live, reaped)) / 1024.0


@dataclass
class RoundLog:
    """Calibrated per-round figures of one measured phase."""

    durations: list[float] = field(default_factory=list)
    raw_durations: list[float] = field(default_factory=list)
    events: int = 0
    #: Namespace operations the load generator ran.
    ops: int = 0
    #: Extra calibrated latencies (e.g. history pages), seconds.
    pages: list[float] = field(default_factory=list)
    #: Operations attempted, by kind (records, actions, frames, ...).
    counts: dict[str, int] = field(default_factory=dict)
    #: Operations that failed, by the same kinds.
    failures: dict[str, int] = field(default_factory=dict)
    #: Peak RSS after MEMORY_ROUNDS rounds (a fixed amount of work).
    rss_mb: float = 0.0

    def count(self, kind: str, value: int) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + value

    def fail(self, kind: str, value: int) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + value

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def pipeline_seconds(self) -> float:
        return sum(self.durations)

    def rate(self, count: int) -> float:
        seconds = self.pipeline_seconds
        return count / seconds if seconds > 0 else 0.0
