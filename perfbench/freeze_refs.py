"""Freeze the reference outputs the benchmark compares against.

    python3 perfbench/freeze_refs.py

Runs every call of every workload once, checks each outcome with the
independent checks only (exit codes, every CheckResult, and for count
reports the partition identity, the label set and nonempty strata), and
writes perfbench/refs.json only if all of them pass: the SHA-256 of each CLI
report and the check names of each suite call.  Run it on the commit whose
outputs are the reference, never to make a failing benchmark pass.
"""

import json
import os
import sys

import workloads
from worker import REFS, import_isograss


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != workloads.HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=workloads.HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    import_isograss()
    refs = {"reports": {}, "suites": {}}
    tally = workloads.Tally()
    for workload in workloads.WORKLOADS:
        for call in workloads.calls(workload, seed=0):
            outcome = workloads.run_call(call)
            workloads.check(call, outcome, None, tally)
            if call.argv:
                refs["reports"][call.key] = workloads.digest(outcome.text)
            else:
                refs["suites"][call.key] = [r.name for r in outcome.results]
    if tally.failed:
        for failure in tally.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print(f"{tally.failed} of {tally.attempted} checks failed; nothing written",
              file=sys.stderr)
        return 1
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{tally.attempted} checks passed; wrote {os.path.relpath(REFS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
