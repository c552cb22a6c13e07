"""Time one fresh interpreter's set-up: import spsakit and finish a 1-iteration
``run_single`` of a workload.  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import workloads  # noqa: E402  (imports spsakit)
from spsakit import bench  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]]
bench.run_single(wl.problem, replace(wl.config, max_iterations=1),
                 int(sys.argv[2]) * workloads.SEED_STRIDE)
print(repr(perf_counter() - START))
