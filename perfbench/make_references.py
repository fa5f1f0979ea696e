"""Regenerate references.json: long-run estimates for the benchmark outputs
that have no closed form.

Each reference comes from one pass of the workload itself, run with
REFERENCE_FACTOR times the workload's sample counts and a seed no workload
pass uses.  Estimates with a closed form are skipped.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import polygas as pg  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_FACTOR = 64
REFERENCE_SEED = 987_654_321


def _entry(est: pg.MCEstimate) -> dict:
    return {"mean": est.mean, "stderr": est.stderr,
            "n_samples": est.n_samples, "seed": est.seed}


def main() -> int:
    workers = min(2, os.cpu_count() or 1)
    refs = {}
    start = time.perf_counter()
    for name, workload in wl.WORKLOADS.items():
        calls = workload.run_pass(workload.setup(), REFERENCE_SEED, workers,
                                  REFERENCE_FACTOR)
        for call in calls:
            for key, est in call.estimates:
                if wl.closed_form(key) is None:
                    refs[key] = _entry(est)
                    print(key, est, file=sys.stderr, flush=True)

    doc = {"generated_by": "perfbench/make_references.py",
           "reference_factor": REFERENCE_FACTOR,
           "seconds": round(time.perf_counter() - start, 1),
           "references": dict(sorted(refs.items()))}
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
