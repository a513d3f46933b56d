"""Fixed reference work that measures how fast the machine runs right now.

On a host shared with other work the speed of one process can drift by a
quarter from one minute to the next.  The benchmark times this loop after
every operation and multiplies the run's wall times by `NOMINAL` over the
median loop time of the run, which turns them into seconds at a fixed
nominal speed and cancels most of that drift.  The loop does the kind of work the package does
(exact fractions, dictionaries) and uses only the standard library, so no
change to the package can change it.
"""

import gc
import time
from fractions import Fraction

# seconds the loop takes at nominal speed: about its median on a 2-core
# x86-64 host running CPython 3.11
NOMINAL = 0.0042


def seconds() -> float:
    """Wall time of one pass of the reference loop.  The garbage collector
    is off meanwhile, so the objects left by earlier work cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total, seen = Fraction(0), {}
        for k in range(1, 900):
            total += Fraction(k, k + 1)
            seen[k % 97] = total
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
