"""Write `reference.json`: the report digest of every program a seed can draw.

    python3 perfbench/make_reference.py

The digests pin the reports of the commit they were taken at; the benchmark
counts any later difference as a failed program. Run this only when a change
is meant to alter reports, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cook = run.import_cook(fresh=False)
    digests = {}
    for key in workloads.all_keys():
        policy = workloads.WORKLOADS[key.partition("/")[0]].policy
        _, text = run.analyze(cook, workloads.source(cook, key).text, policy)
        digests[key] = workloads.report_digest(text)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=False)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
