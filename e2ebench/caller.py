"""One caller process of a timed check-sat or batch-fused pass.

Started by ``workloads.measure`` as ``python3 e2ebench/caller.py
<workload> <seed> <seconds>``; it gets its inputs one by one over stdin
and reports over stdout (see ``workloads.caller_main``).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402 — needs the sources on the path first

if __name__ == "__main__":
    workloads.caller_main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
