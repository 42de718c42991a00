"""Sample summaries used by every workload.

A tail percentile is only reported when at least :data:`MIN_TAIL`
samples lie beyond it; with fewer, the "p95" of a run is really one or
two unlucky operations and moves from run to run for no reason the
program controls.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def rank_index(count: int, percentile: float) -> int:
    """Nearest-rank index (0-based) of ``percentile`` in ``count``
    sorted samples."""
    if count < 1:
        raise TooFewSamples("no samples")
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return max(0, math.ceil(percentile / 100.0 * count) - 1)


def tail(samples: Sequence[float], percentile: float) -> float:
    """The ``percentile``-th value, refusing a thin tail.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_TAIL`
    samples lie beyond the selected rank: p95 needs 200 samples, p99
    needs 1000.
    """
    ordered = sorted(samples)
    index = rank_index(len(ordered), percentile)
    beyond = len(ordered) - 1 - index
    if beyond < MIN_TAIL:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (percentile, len(ordered), beyond, MIN_TAIL)
        )
    return ordered[index]


def min_samples_for(percentile: float) -> int:
    """Smallest sample count for which :func:`tail` accepts
    ``percentile``."""
    count = MIN_TAIL + 1
    while True:
        if count - 1 - rank_index(count, percentile) >= MIN_TAIL:
            return count
        count += 1


def block_tail(samples: Sequence[float], percentile: float) -> float:
    """The median, over consecutive blocks of ``samples`` (in the order
    they were taken), of each block's :func:`tail`.

    The blocks are as many as fit :func:`min_samples_for` samples each.
    A stretch in which the shared machine slowed some kinds of work
    more than others then moves only the blocks it covers: with three
    or more blocks, the median leaves out a minority of them.
    """
    count = len(samples) // min_samples_for(percentile)
    if count < 1:
        return tail(samples, percentile)
    return statistics.median(
        tail(samples[i * len(samples) // count:
                     (i + 1) * len(samples) // count], percentile)
        for i in range(count))


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("no samples")
    return statistics.median(samples)
