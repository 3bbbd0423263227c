"""Float sums that round the same on every Python version.

From Python 3.12, builtin :func:`sum` adds floats with compensated
summation, so one float sum can round differently under 3.11 and 3.12
and a schedule built from it drifts.  ``repro`` adds floats with
:func:`ordered_sum` instead.
"""

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right sum from int ``0``: :func:`sum` before Python 3.12."""
    total = 0
    for value in values:
        total = total + value
    return total
