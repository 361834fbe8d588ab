"""Record the output digests every benchmark run is checked against.

Usage (from the repository root):
``python3 benchmarks/record_digests.py [WORKLOAD ...]`` (default: all)

Runs each workload once per seed slot, untraced, exactly as run.py does,
and rewrites ``digests.json``.  Run it only for a deliberate change of
the results or of a workload, and say so in CHANGES.md: the digests are
the byte gate that every other change is judged by.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(names: list[str]) -> int:
    path = os.path.join(run.BENCH_DIR, "digests.json")
    table = {}
    if os.path.isfile(path):
        with open(path) as fh:
            table = json.load(fh)["workloads"]
    for workload in names or workloads.WORKLOADS:
        table[workload] = {}
        for slot in range(workloads.SEED_SLOTS):
            rep_dir = os.path.join(run.OUT_DIR, f"record_{workload}_{slot}")
            shutil.rmtree(rep_dir, ignore_errors=True)
            try:
                raw = run.run_rep(workloads.campaigns(workload, slot), rep_dir, trace=False)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            table[workload][str(workloads.master_seed(workload, slot))] = raw["digests"]
            print(f"{workload} slot {slot}: frames_run {raw['frames_run']} of "
                  f"{raw['frame_modes_attempted']}", flush=True)
    doc = {
        "about": "sha256 of each output file, per workload and campaign master seed; "
                 "written by record_digests.py",
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "environment": run.environment(raw["versions"]),
        "workloads": table,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
