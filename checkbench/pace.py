"""The machine's pace, and operation times scaled to a nominal pace.

This benchmark runs on shared machines whose speed moves by a third or
more over minutes, for all code alike: the same farm file checked in two
runs a few minutes apart can take 11 s or 17 s per round. Such shifts
swamp any change to the checker. So before every timed operation the
benchmark times ``reference_loop``, a fixed piece of plain Python
(dictionary lookups, tuple hashing, string sorting) that shares no code
with the checker, and scales each operation's wall-clock by how fast
that loop ran around it. A change to the checker moves the scaled times
in full, since the loop does not run its code; a change in the
machine's speed moves the loop and the checks alike, and cancels.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List, Sequence

#: The loop's time, in ms, at the nominal pace: about its median on the
#: 2-core machine of the README's reference figures. Scaled times are
#: wall-clock milliseconds on a machine that runs the loop in this time.
NOMINAL_MS = 2.9
#: An operation is scaled by the loop times of at least this many
#: operations either side of it, and its own (see ``scaled``).
WINDOW = 3


def reference_loop() -> int:
    table: dict = {}
    total = 0
    for i in range(6000):
        key = ("f", i % 97, (i * 7) % 13)
        node = table.get(key)
        if node is None:
            node = table[key] = [key, i]
        total += node[1] & 7
    words = sorted(str(i * 7919 % 1009) for i in range(1500))
    return total + len(words)


def time_reference() -> float:
    """Seconds one run of ``reference_loop`` takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def at_pace(seconds: float) -> float:
    """``seconds`` just measured, scaled to the nominal pace by the median
    of ``2 * WINDOW + 1`` runs of the loop timed now."""
    references = [time_reference() for _ in range(2 * WINDOW + 1)]
    return seconds * (NOMINAL_MS / 1000.0) / statistics.median(references)


def scaled(
    times: Sequence[float], references: Sequence[float], starts: Sequence[float]
) -> List[float]:
    """Each of ``times`` scaled to the nominal pace.

    ``references[i]`` is the loop's time just before the operation that
    started at ``starts[i]`` and took ``times[i]``. An operation is scaled
    by the median loop time of the operations that started from its own
    duration before its start to its own duration after its end, and of
    at least its ``WINDOW`` neighbours either side. So a 10 s check is
    scaled by the machine's pace over the 30 s around it, not only by the
    loops timed at its two edges.
    """
    if not len(times) == len(references) == len(starts):
        raise ValueError("one reference time and start per operation")
    nominal = NOMINAL_MS / 1000.0
    result = []
    for i, value in enumerate(times):
        first = min(max(0, i - WINDOW), bisect_left(starts, starts[i] - value))
        last = max(i + WINDOW + 1, bisect_right(starts, starts[i] + 2 * value))
        result.append(value * nominal / statistics.median(references[first:last]))
    return result
