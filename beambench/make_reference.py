"""Rewrite reference.json from the current beamkit sources.

    python3 beambench/make_reference.py

Pins each workload's output summary on the reference seed.  Rerun it
only when a change to beamkit is meant to change what it computes, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, import_path, pin_blas_threads, scratch_dir


def main() -> int:
    pin_blas_threads()
    import_path()
    import workloads

    reference = {}
    with scratch_dir() as work_dir:
        for name, spec in workloads.WORKLOADS.items():
            workload = spec(workloads.REFERENCE_SEED)
            workload.setup(os.path.join(work_dir, name))
            result = workload.run(workload.prepare())
            workload.check(result)
            reference[name] = workload.summary(result)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
