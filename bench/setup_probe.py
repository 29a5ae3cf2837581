"""Set-up cost of one fresh interpreter: ``import likekit`` plus the warm-up pass.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints the seconds spent in the import and in the warm-up operations as
one JSON number. Building the warm-up inputs is not counted.
"""

import sys
import time
from pathlib import Path

root = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(root / "src"))

t0 = time.perf_counter()
import likekit  # noqa: E402,F401

imported = time.perf_counter() - t0

import random  # noqa: E402

from tracing import UNTRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ops = WORKLOADS[sys.argv[1]](random.Random(int(sys.argv[2])), warm=True)
t1 = time.perf_counter()
outs = [op.run(UNTRACED) for op in ops]
warmed = time.perf_counter() - t1
bad = [reason for op, out in zip(ops, outs) if (reason := op.check(out)) and not op.known_defect]
if bad:
    sys.exit(f"warm-up output is wrong: {bad[0]}")
print(imported + warmed)
