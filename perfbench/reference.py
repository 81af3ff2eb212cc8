"""Reference loop that gauges how fast the machine runs the interpreter now.

On a shared virtual machine the speed of a vCPU changes from one second to
the next; the same desk run takes anywhere from 0.9 to 2.2 s, and the mix of
fast and slow periods differs between two invocations minutes apart. Code
bound by the interpreter, like the desk and pipeline workloads, follows
these changes closely. The benchmark therefore times this fixed pure-Python
loop, which uses no mpctrack code, right before and right after every run,
and scales the run's times by NOMINAL_S over the mean of the two loop times:
every reported time reads as it would on a machine where the loop takes
NOMINAL_S. The raw times are reported next to the scaled ones.
"""

import time

# The loop's time on a quiet 2-core Intel Xeon (Sapphire Rapids) VM with
# CPython 3.11: the speed the scaled times refer to.
NOMINAL_S = 0.020


def reference_s() -> float:
    """Wall time of one pass of the reference loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0
