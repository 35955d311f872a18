"""Write bench/reference.json: output digests of the schedule items at seed 0.

Run from the repository root:

    python3 bench/reference.py

bench/run.py compares every checked op of a seed-0 run against these digests,
so a verdict that flips status (or any other change of output) on those
instances fails even when the new output would pass the checker.  Regenerate
only for an intended change of output, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
LIMIT = 1200  # items per workload: the whole schedule, except for digits


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        items = workload.generate(SEED, run.import_monocert())
        mc, objects, _ = run.set_up(workload, items, 1, run.Yardstick())
        digests = {}
        for key, item in enumerate(items[:LIMIT]):
            try:
                out = workload.op(mc, objects, item)
            except ValueError as exc:  # the documented rejection; the check decides
                out = exc
            ok, _ = workload.check(mc, item, out)
            if not ok:
                print(f"{name} item {key} {item!r} fails its check", file=sys.stderr)
                return 1
            digests[str(key)] = check.digest(run.summarise(workload, out))
        reference[name] = {"seed": SEED, "digests": digests}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
