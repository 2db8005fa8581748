"""Set-up probe: import tightcert, the CLI module included, and generate one
workload's inputs, then print the ``perf_counter`` reading of that moment
and exit.  run.py times this script from spawn to that reading as the
workload's set-up time.

    python3 perfbench/ready.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tightcert.cli  # noqa: E402,F401
from tightcert.rationals import SurgeryCoeff  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    pairs = workloads.spec(sys.argv[1]).pairs
    slopes = [SurgeryCoeff(p, q) for p, q in pairs]
    workloads.plan(pairs, int(sys.argv[2]))
    print(perf_counter())
