"""Machine-speed reference: scales measured times to one nominal speed.

On a shared virtual machine the speed of plain Python code drifts by a
third and more over tens of seconds, with all of the program's layers
moving together.  A run therefore times a fixed piece of pure-Python work
(free reduction of a word on tuples and lists, then dict counting, the
operations the braid engine spends its time in) every REF_EVERY_S, and
scales each measured time by REF_NOMINAL_S over the reference time around
it.  A scaled time reads as milliseconds on the machine the nominal time
was taken on.  The reference depends on nothing in the package, so a
change to the program moves the scaled times exactly as it moves wall
time at a steady machine speed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Median time of reference_work() on the machine the sizes were set on
# (Python 3.11, shared 2-vCPU VM).
REF_NOMINAL_S = 0.0038
REF_EVERY_S = 0.25
# Reference samples on each side of a measured time that set its scale.
REF_WINDOW = 6

_rng = random.Random(0)
_WORD = tuple(_rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(1500))


def reference_work() -> tuple[int, int]:
    word = _WORD
    for _ in range(8):
        out: list[int] = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        word = tuple(out) + word[:400]
    counts: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 97, word[i % len(word)])
        counts[key] = counts.get(key, 0) + 1
    return len(word), len(counts)


class Speed:
    """Reference samples taken through a run; `mark()` names the latest one."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.next_at = 0.0

    def sample(self) -> None:
        gc.disable()  # the reference makes no cycles; keep the program's heap out of it
        try:
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.next_at = time.perf_counter() + REF_EVERY_S

    def mark(self) -> int:
        """Sample if REF_EVERY_S has passed; the index of the latest sample."""
        if not self.samples or time.perf_counter() >= self.next_at:
            self.sample()
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Nominal over measured reference time, from the samples around `mark`."""
        window = self.samples[max(0, mark - REF_WINDOW + 1) : mark + REF_WINDOW + 1]
        return REF_NOMINAL_S / statistics.median(window)
