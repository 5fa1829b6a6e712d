"""Set-up probe: one fresh process that imports the workloads, builds the
named one from its seed and makes its first operation, then prints "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times it from spawn until that line arrives.
"""

import os
import sys

# As in run.py: one thread per process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).next_op()
print("ready", flush=True)
