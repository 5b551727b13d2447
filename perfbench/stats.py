"""Order statistics shared by the workloads and the steadiness command."""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile_rank", "local_ratios", "spread"]


def percentile_rank(values, percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percentile`` percent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def local_ratios(durations, kernel_index, kernel_samples, half_window=7):
    """Each duration divided by the median kernel time around it.

    ``kernel_index[i]`` is the position in ``kernel_samples`` of the
    kernel run that followed duration ``i``; the median of the kernel
    runs within ``half_window`` of it is that duration's unit, so slow
    drift of the host's speed cancels out.
    """
    ratios = []
    for duration, index in zip(durations, kernel_index):
        lo = max(0, index - half_window)
        window = kernel_samples[lo:index + half_window + 1]
        ratios.append(duration / statistics.median(window))
    return ratios


def spread(values) -> dict:
    """Median, quartiles, min/max and the quartile distance as a share of
    the median (the figure the benchmark's bounds are set against)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "iqr_share": (q3 - q1) / median if median else float("nan"),
            "range_share": ((max(values) - min(values)) / median
                            if median else float("nan"))}
