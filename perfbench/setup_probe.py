"""Time one set-up of a workload in a fresh interpreter: import the package
and build one pass of the workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

prints the seconds it took.
"""
import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (importing the package is part of set-up)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.perf_counter() - start)
