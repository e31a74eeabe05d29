"""Write bench/reference.json: reference criterion values and the failure set.

Runs every workload's op list once at seed 0 without value checks and records
the criterion value of each solve that ends converged (the value check of
later runs compares against it within the certificate tolerance) and the
reason of each op that fails (the baseline failure set). Run from the root of
a checkout:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings

import run

SEED = 0


def main() -> int:
    run.import_package()
    import workloads

    warnings.simplefilter("ignore")
    values, failures = {}, {}
    for name, wl in workloads.WORKLOADS.items():
        ctx = workloads.Context(seed=SEED, reference={}, workdir=run.RUNS / "work-reference")
        wl.setup(ctx)
        failures[name] = {}
        for op in wl.ops():
            out = op(ctx)
            if out.converged and out.value is not None:
                values[out.name] = out.value
            if not out.ok:
                failures[name][out.name] = out.reason
            print(f"{name:<18} {out.name:<32} {'ok' if out.ok else 'FAIL'} {out.reason}", flush=True)
    shutil.rmtree(run.RUNS / "work-reference", ignore_errors=True)
    body = {"seed": SEED, "values": values, "baseline_failures": failures}
    run.REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
