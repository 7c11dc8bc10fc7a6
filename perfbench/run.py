"""Command line of the rfrac benchmark.

    python3 perfbench/run.py --workload gram --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it benchmarks the rfrac sources under
``src``. The BLAS/OpenMP thread variables are pinned to 1 before numpy is
imported, so the whole run is one process with one thread.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def pin_threads():
    """Pin the BLAS/OpenMP pools to one thread; call before numpy loads."""
    with open(HERE / "spec.json") as fh:
        process = json.load(fh)["process"]
    for var in process["thread_env"]:
        os.environ[var] = process["thread_env_value"]


if __name__ == "__main__":
    pin_threads()
    sys.path.insert(0, str(HERE.parent))
    from perfbench.harness import main
    sys.exit(main(sys.argv[1:]))
