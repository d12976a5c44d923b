"""Record the deterministic outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs the benchmark's kalman-demo, collective-cat and collective-squeeze jobs
(their compared columns do not depend on the seed) and writes the columns
named in ``workloads.REFERENCE_COLUMNS`` to ``reference.json``.  Re-record
only when a change to the benchmark's job sizes makes the old values
inapplicable, never to absorb a change in the program's output.
"""

import json
import os

import workloads

out = os.path.join(os.path.dirname(workloads.REFERENCE_PATH), ".out", "reference")
os.makedirs(out, exist_ok=True)
jobs = workloads.small_state_jobs(0, out) + workloads.collective_large_jobs(0, out)
ref = {job.experiment: workloads.reference_columns(job.experiment, job.run())
       for job in jobs if job.experiment in workloads.REFERENCE_COLUMNS}
with open(workloads.REFERENCE_PATH, "w") as f:
    json.dump(ref, f, indent=1)
    f.write("\n")
