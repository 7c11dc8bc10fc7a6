"""Failure census at the default seed: one untimed pass over each workload.

    python3 perfbench/census.py      # rewrites perfbench/census.json

Every task of each workload's pool runs once; the file records the outcome
counts per model and, for every task that is not ok, its inputs, its class
and the exception message or worst relative error.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.run import pin_threads
    pin_threads()
    from perfbench.harness import write_census
    sys.exit(write_census(Path(__file__).resolve().parent / "census.json"))
