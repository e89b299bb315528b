"""Machine-speed calibration for the benchmark's times.

On a shared host the CPU speed seen by one process drifts by tens of
percent from second to second and by up to twofold over minutes, and
averaging inside one run cannot remove a drift that lasts longer than
the run.  So the benchmark runs a fixed pure-Python loop (Fraction and
dict arithmetic, like twistk's own hot loops) next to every measured
interval, and reports every end-to-end time at the reference speed, the
speed at which that loop takes REFERENCE_S:

    time at reference speed = measured time / slowdown ** elasticity
    slowdown = local loop time / REFERENCE_S

The local loop time is a noisy estimate of the speed during the interval,
so the correction is shrunk.  Each elasticity is the least-squares slope of
log(time) on log(slowdown), measured on a 2-core shared host:

- jobs, one intercept per job: 0.65 to 0.70 on each finite workload
  (some 11,000 jobs), 0.70 to 0.79 on infinite-fuzz (four runs of 800
  jobs, 0.77 pooled); the slope also gave the smallest run-to-run spread;
- set-up, one intercept per workload, across runs: the slope of the log
  median set-up time on the log median slowdown of its samples was 0.655
  over 45 runs of the three workloads (correlation 0.87).  The slope over
  single samples is lower (0.36 to 0.59) because a single slowdown reading
  is noisier, so the run-level slope is the one that steadies the median.

Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002
ROUNDS = 1000
ELASTICITY = {"finite-validate-center": 2 / 3, "finite-decide-large": 2 / 3, "infinite-fuzz": 0.77}
SETUP_ELASTICITY = 0.65
RADIUS = 3  # samples on each side of a job
# A timed phase runs until this many correctly answered jobs lie beyond the
# 90th percentile, so that p90 rests on ten or more of them.
MIN_BEYOND_P90 = 10


def calibrate() -> float:
    """Seconds one run of the fixed loop takes right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, ROUNDS):
        acc += Fraction(i % 7, i % 5 + 1)
        counts[i % 13] = counts.get(i % 13, 0) + i
    return time.perf_counter() - start


def slowdowns(samples: list[float]) -> list[float]:
    """Slowdown against the reference for each interval between samples i
    and i+1, from the RADIUS samples on each side of it."""
    return [
        statistics.median(samples[max(0, i + 1 - RADIUS): i + 1 + RADIUS]) / REFERENCE_S
        for i in range(len(samples) - 1)
    ]


def at_reference(seconds: float, slowdown: float, elasticity: float) -> float:
    return seconds / slowdown**elasticity


def job_times(attempts: list, calibrations: list[float], workload: str) -> list[float]:
    """Each attempt's (job, seconds, outcome) time at reference speed; a
    calibration sample precedes the first job and follows every job."""
    return [at_reference(seconds, slow, ELASTICITY[workload])
            for (_, seconds, _), slow in zip(attempts, slowdowns(calibrations))]


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8]


def beyond_p90(times: list[float], ok: list[bool]) -> int:
    """How many correctly answered jobs take longer than their 90th percentile."""
    answered = [t for t, good in zip(times, ok) if good]
    if len(answered) < 2:
        return 0
    limit = p90(answered)
    return sum(t > limit for t in answered)
