"""Record reference digests of sweep output for seeds not yet in reference.json.

    python3 perfbench/record.py --workload family-n10 --seeds 0-20

Each seed gets one pass through `run.run`, with every check of a normal
run except the reference itself; its digest is stored only if that run
is correct.  Recorded digests are never overwritten: a program change
that alters the output on purpose re-records them in a benchmark change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-20")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    w = WORKLOADS[args.workload]
    reference = run.load_reference()
    table = reference.setdefault(w.name, {})
    for seed in range(first, last + 1):
        if str(seed) in table:
            continue
        report = run.run(w, seed, 0.0, traced=False)
        if not report["correct"]:
            print(f"{w.name} seed {seed}: {report['failed']} of {report['attempted']} graphs failed; "
                  "not recorded", file=sys.stderr)
            return 1
        table[str(seed)] = report["digest"]
        with open(run.REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{w.name} seed {seed}: {report['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
