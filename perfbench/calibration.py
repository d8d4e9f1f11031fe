"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of this machine's cores drifts by up to 2x over
seconds to minutes (other tenants load the same physical cores), and that
drift swamps any change to zfprob.  So next to each timed interval the
benchmark times `probe`, a fixed mix of interpreter and numpy work that
does not touch zfprob, and reports the interval scaled to the speed at
which the probe takes REFERENCE_PROBE_S:

    scaled = raw * REFERENCE_PROBE_S / probe seconds around the interval

A faster zfprob lowers the scaled times exactly as it lowers the raw ones;
a slower machine raises both the raw time and the probe, and mostly
cancels.  The raw times are printed next to the scaled ones.
"""

import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.004


def probe():
    """Seconds for a fixed mix of interpreter loops and small and medium
    numpy operations, about REFERENCE_PROBE_S on a quiet 2-core Xeon VM."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    small = np.arange(64.0)
    for _ in range(200):
        small = np.sqrt(small * small + 1.0)
    medium = np.arange(100_000, dtype=np.uint64)
    for _ in range(4):
        medium = (medium ^ (medium >> np.uint64(7))) * np.uint64(0x9E3779B97F4A7C15)
    return time.perf_counter() - start


def probe_median(repeats=3):
    return statistics.median(probe() for _ in range(repeats))


def scale(raw_seconds, probe_seconds):
    return raw_seconds * REFERENCE_PROBE_S / probe_seconds
