"""Set-up of one benchmark run in a fresh interpreter: import the command
line and build the workload's inputs, then print the system-wide monotonic
clock.  ``run.py`` subtracts its own reading from before the launch.

    python3 perfbench/setup_probe.py --workload verify-suite --seed 1
"""

import argparse
import time

import workloads  # imports qck.cli

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()
workloads.build(args.workload, args.seed)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
