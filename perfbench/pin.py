"""Pin the exact output of every op the workload seeds can reach.

    python3 perfbench/pin.py

Runs each instance that seeds 0..SEED_POOL-1 reach and writes the digest of
its canonical output to data/pinned.json. Run it only on a commit whose
outputs are taken as correct; run.py compares every op against these
digests. The pinned file was written at the commit that added this
benchmark.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "data", "pinned.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    pinned = {}
    for name in workloads.WORKLOADS:
        keys = sorted({k for s in range(workloads.SEED_POOL) for k in workloads.instance_keys(name, s)})
        table = pinned[name] = {}
        for key in keys:
            text = workloads.generate_text(key)
            result = workloads.OPS[name](text)
            problem = workloads.independent_check(name, text, result)
            if problem is not None:
                raise SystemExit(f"{key}: {problem}")
            canon = workloads.canonical(name, result)
            table[key] = {"digest": workloads.digest(canon), **workloads.headline(name, canon)}
            print(f"{name} {key}", file=sys.stderr, flush=True)
    os.makedirs(os.path.dirname(PINNED), exist_ok=True)
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, sort_keys=True, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
