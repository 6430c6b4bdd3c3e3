"""Rewrite bench/seed_contract.json from the current program.

    python3 bench/record_seed_contract.py

Only for a change that is meant to alter sampled output; the benchmark
counts every (state, shots) case whose digest differs as a failed unit.
"""

import json

import run  # sets single-threaded BLAS before numpy loads

workloads = run._import_spapt()
with open(workloads.CONTRACT_PATH, "w", encoding="utf-8") as fp:
    json.dump(workloads.record_contract(), fp, indent=1, sort_keys=True)
    fp.write("\n")
print(f"wrote {workloads.CONTRACT_PATH}")
