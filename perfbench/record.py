"""Record the reference values that random-ladder and seesaw-large check.

    python3 perfbench/record.py

Run from the root of a checkout. For every pool game and every restart seed
that a run can meet, this makes the same `xorq bias` call as the benchmark
and stores each reported value, and it stores the sha256 of every input
file. Re-record only when a change is meant to alter these values, and say
so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def main() -> int:
    cli = run._import_xorq()
    import workloads

    refs = {"games": {}, "items": {}}
    with (tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-record-") as tmp,
          open(os.devnull, "w") as log):
        for workload in workloads.WORKLOADS:
            builders, items = workloads.reference_set(workload)
            plan = workloads.Plan(workload, builders, None, [], [])
            paths, hashes = workloads.write_inputs(plan, os.path.join(tmp, workload))
            refs["games"].update({f"{workload}/{g}": h for g, h in hashes.items()})
            for item in items:
                out = os.path.join(tmp, "out.json")
                dt, rc = run._call(cli, item, paths, out, log)
                if rc != 0:
                    print(f"{item.ref}: exit {rc}", file=sys.stderr)
                    return 1
                with open(out, "r", encoding="utf-8") as fh:
                    rep = json.load(fh)
                refs["items"][item.ref] = {
                    f: rep[f] for f in workloads.LOWER_FIELDS + workloads.UPPER_FIELDS
                    if rep.get(f) is not None
                }
                print(f"{item.ref}: {dt:.2f}s", file=sys.stderr, flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
