"""Set-up cost of one fresh interpreter: import quiverglue, prepare a workload's generators.

Prints one JSON line: ``{"import_s": ..., "setup_s": ...}``.  ``run.py``
starts it several times and reports the medians.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quiverglue.cli  # noqa: E402,F401
import quiverglue.glue  # noqa: E402,F401

t_import = time.perf_counter()

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    next(workloads.WORKLOADS[args.workload].specs(args.seed))
    t_setup = time.perf_counter()
    print(json.dumps({"import_s": t_import - t0, "setup_s": t_setup - t0}))


if __name__ == "__main__":
    main()
