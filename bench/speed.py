"""Machine-speed gauge: times in reference seconds.

The host this benchmark was built on is shared.  There, the throughput of a
fixed pure-Python loop wandered between 6 and 13 million iterations per
second, from one second to the next and over minutes.  Raw times of the same
pass on the same seed spread by 30 % (quartiles over median) and drifted by
75 % within ten minutes.

So a fixed calibration kernel runs before the first task of a pass and after
every task.  A task's raw seconds are rescaled by REF_S over the median time
of the four kernels nearest to it.  The result is in *reference seconds*:
the time the task would take on a machine where the kernel takes REF_S.  On
the same seed, this cut the spread of the pass time from 0.31 to 0.05 and
that of the median task latency from 0.36 to 0.02.  A slower program still
reads slower, because the kernel is the benchmark's own code and the program
never runs it.  The kernel mixes what the tasks' inner loops do: small numpy
expressions and Python float arithmetic.
"""

from time import perf_counter

import numpy as np

REF_S = 1.5e-3  # the kernel's typical time on the 2-core build machine
_X = np.linspace(0.0, 1.0, 8)


def kernel_seconds():
    t0 = perf_counter()
    acc = 0.0
    for i in range(250):
        y = np.sqrt(_X * _X + 1.0) - _X
        acc += float(np.sum(y)) + i * 0.5
    return perf_counter() - t0


def factors(kernels):
    """Reference-second factors of the n tasks that ran between n + 1
    kernel timings: REF_S over the median of the four kernels nearest each
    task, so one kernel slowed by an interrupt does not skew its neighbours."""
    k = np.asarray(kernels)
    return [REF_S / float(np.median(k[max(0, i - 1):i + 3])) for i in range(len(k) - 1)]
