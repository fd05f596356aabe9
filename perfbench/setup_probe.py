"""Set one workload up in a fresh interpreter and print the set-up time.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

run.py starts this several times per benchmark run: importing funcevt
is only slow once per process, so each set-up sample needs its own.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import timed_setup  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:]
    _, seconds = timed_setup(name, int(seed), Path(workdir))
    print(json.dumps({"setup_s": seconds}))
