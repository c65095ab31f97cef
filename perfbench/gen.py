"""Write the input documents of a workload for one seed.

    python3 perfbench/gen.py WORKLOAD SEED COUNT OUT

OUT receives a JSON list of [key, text] pairs, the first COUNT in op
order. run.py calls this in a process of its own, so that the generator's
hulls never warm a cache of the timed process.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    workload, seed, count, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    keys = workloads.instance_keys(workload, seed)[:count]
    pairs = [[key, workloads.generate_text(key)] for key in keys]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(pairs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
