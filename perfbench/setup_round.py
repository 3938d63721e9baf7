"""One cold set-up round: import hitminor and generate a workload's inputs in a
new process, so that the round pays every import a new process pays.

    python3 perfbench/setup_round.py WORKLOAD SEED

Prints the seconds taken.  run.py starts this script several times per run
and reports the median as `setup_s`.  Importing the benchmark's own modules
and reading reference.json are not timed.  Nothing but `sys`, `os` and
`time`, which the interpreter loads at start-up anyway, is imported before
the clock starts.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

started = perf_counter()
import hitminor  # noqa: E402

imported = perf_counter()

import workloads  # noqa: E402

reference = workloads.load_reference()
generating = perf_counter()
workloads.build_cycles(hitminor, sys.argv[1], int(sys.argv[2]), reference)
print(imported - started + perf_counter() - generating)
