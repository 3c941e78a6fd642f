"""The set-up that run.py times for ``setup_s``.

    python3 perfbench/setup_probe.py --workload sweep-mc --seed 1 --out DIR

Starts an interpreter, imports noiselab from the checkout's ``src`` and
writes the workload's seeded input files into DIR.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import noiselab  # noqa: E402,F401  (the import is what is being timed)
import workloads  # noqa: E402

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    workloads.write_inputs(args.workload, args.seed, Path(args.out))
